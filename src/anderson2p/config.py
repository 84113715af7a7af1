"""Experiment configuration: file format, validation, and hashing.

A configuration is a JSON object with the documented keys below; presets
fill in schedule defaults, and the config hash covers exactly the
semantically meaningful fields (the output directory and any timestamps are
excluded), so the hash changes iff a field that can affect results does.

Keys::

    dimension      int >= 1                      (default 1)
    adjacency      "sup" | "l1"                  (default "sup", the
                                                  all-neighbour rule)
    distribution   {"kind": "uniform",
                    "support": [a, b], ...}      (default uniform [0,1])
    interaction    {"r0": int, "u0": float} or
                   {"r0": int, "profile": [...]} (default r0=1, u0=1)
    g              float coupling                (default from preset)
    schedule       {"L0", "alpha", "gamma", "m0", "beta", "p", "q",
                    "J", "k_max", "p_tilde"}     (preset-dependent defaults)
    preset         "desk" | "asymptotic" | "custom"   (default "desk")
    interval       [a, b] energy interval        (default [-1, 1])
    grid_spacing   float > 0 | null              (override of the grid rule)
    trials         int                           (default 200)
    seed           int                           (default 1)
    output_dir     str | null
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Optional

from .disorder import DistributionSpec, InteractionSpec
from .errors import InvalidInputError
from .geometry import normalize_adjacency
from .msa import ScaleSchedule, schedule as build_schedule

_DESK_SCHEDULE = {
    "L0": 3, "alpha": 1.5, "gamma": 1.0, "m0": 0.5, "beta": 0.5,
    "p": 2.0, "q": 8.0, "J": 9, "k_max": 2, "p_tilde": None,
}
_ASYMPTOTIC_SCHEDULE = {
    "L0": 10_000, "alpha": 1.5, "gamma": 40.0, "m0": 1.0, "beta": 0.5,
    "p": 22.0, "q": 101.0, "J": 9, "k_max": 2, "p_tilde": 160.0,
}
_DESK_G = 30.0
_ASYMPTOTIC_G = 1000.0


class ConfigError(InvalidInputError):
    """Invalid configuration; carries field-level diagnostics."""

    def __init__(self, diagnostics: list[tuple[str, str]]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(f"{f}: {m}" for f, m in diagnostics))

    def to_record(self) -> dict:
        return {
            "kind": "error", "error": "invalid_config",
            "diagnostics": [{"field": f, "message": m}
                            for f, m in self.diagnostics],
        }


@dataclass
class ExperimentConfig:
    dimension: int = 1
    adjacency: str = "sup"
    distribution: dict = dc_field(default_factory=lambda: {
        "kind": "uniform", "support": [0.0, 1.0]})
    interaction: dict = dc_field(default_factory=lambda: {"r0": 1, "u0": 1.0})
    g: Optional[float] = None
    schedule: dict = dc_field(default_factory=dict)
    preset: str = "desk"
    interval: tuple[float, float] = (-1.0, 1.0)
    grid_spacing: Optional[float] = None
    trials: int = 200
    seed: int = 1
    output_dir: Optional[str] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        diags: list[tuple[str, str]] = []
        known = {
            "dimension", "adjacency", "distribution", "interaction", "g",
            "schedule", "preset", "interval", "grid_spacing", "trials",
            "seed", "output_dir",
        }
        for key in raw:
            if key not in known:
                diags.append((key, "unknown configuration key"))
        preset = raw.get("preset", "desk")
        if preset not in ("desk", "asymptotic", "custom"):
            diags.append(("preset", f"must be desk|asymptotic|custom, got {preset!r}"))
            preset = "desk"
        base = dict(_ASYMPTOTIC_SCHEDULE if preset == "asymptotic" else _DESK_SCHEDULE)
        base.update(raw.get("schedule", {}) or {})
        cfg = cls(
            dimension=raw.get("dimension", 1),
            adjacency=raw.get("adjacency", "sup"),
            distribution=raw.get("distribution",
                                 {"kind": "uniform", "support": [0.0, 1.0]}),
            interaction=raw.get("interaction", {"r0": 1, "u0": 1.0}),
            g=raw.get("g"),
            schedule=base,
            preset=preset,
            interval=tuple(raw.get("interval", (-1.0, 1.0))),
            grid_spacing=raw.get("grid_spacing"),
            trials=raw.get("trials", 200),
            seed=raw.get("seed", 1),
            output_dir=raw.get("output_dir"),
        )
        if cfg.g is None:
            cfg.g = _ASYMPTOTIC_G if preset == "asymptotic" else _DESK_G
        diags.extend(cfg._validate())
        if diags:
            raise ConfigError(diags)
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError([("config", f"file not found: {path}")]) from None
        except json.JSONDecodeError as e:
            raise ConfigError([("config", f"not valid JSON: {e}")]) from None
        if not isinstance(raw, dict):
            raise ConfigError([("config", "top level must be a JSON object")])
        return cls.from_dict(raw)

    def _validate(self) -> list[tuple[str, str]]:
        diags = []
        if not isinstance(self.dimension, int) or self.dimension < 1:
            diags.append(("dimension", "must be an integer >= 1"))
        try:
            self.adjacency = normalize_adjacency(self.adjacency)
        except InvalidInputError as e:
            diags.append(("adjacency", str(e)))
        try:
            DistributionSpec.from_dict(self.distribution)
        except (InvalidInputError, KeyError, TypeError) as e:
            diags.append(("distribution", str(e)))
        try:
            InteractionSpec.from_dict(self.interaction)
        except (InvalidInputError, KeyError, TypeError) as e:
            diags.append(("interaction", str(e)))
        if not isinstance(self.trials, int) or self.trials < 0:
            diags.append(("trials", "must be a nonnegative integer"))
        if not isinstance(self.seed, int):
            diags.append(("seed", "must be an integer"))
        if (
            len(self.interval) != 2
            or not all(isinstance(x, (int, float)) for x in self.interval)
            or not self.interval[0] < self.interval[1]
        ):
            diags.append(("interval", "must be numeric [a, b] with a < b"))
        if self.grid_spacing is not None and (
            isinstance(self.grid_spacing, bool)
            or not isinstance(self.grid_spacing, (int, float))
            or not 0 < self.grid_spacing < math.inf
        ):
            diags.append(("grid_spacing", "must be null or a positive finite number"))
        for key in ("L0", "alpha", "gamma", "m0", "beta", "p", "q", "J", "k_max"):
            if key not in self.schedule:
                diags.append((f"schedule.{key}", "missing"))
        return diags

    # -- derived objects ---------------------------------------------------

    def distribution_spec(self) -> DistributionSpec:
        return DistributionSpec.from_dict(self.distribution)

    def interaction_spec(self) -> InteractionSpec:
        return InteractionSpec.from_dict(self.interaction)

    def build_schedule(self) -> ScaleSchedule:
        s = self.schedule
        return build_schedule(
            int(s["L0"]), float(s["alpha"]), float(s["gamma"]), float(s["m0"]),
            int(s["k_max"]), beta=float(s["beta"]), p=float(s["p"]),
            q=float(s["q"]), r0=int(self.interaction.get("r0", 1)),
            g=float(self.g), J=int(s["J"]), d=self.dimension,
            preset=self.preset,
            p_tilde=None if s.get("p_tilde") is None else float(s["p_tilde"]),
        )

    # -- hashing -----------------------------------------------------------

    def semantic_dict(self) -> dict[str, Any]:
        """All fields that can influence emitted results (output location
        excluded)."""
        return {
            "dimension": self.dimension,
            "adjacency": self.adjacency,
            "distribution": self.distribution,
            "interaction": self.interaction,
            "g": self.g,
            "schedule": self.schedule,
            "preset": self.preset,
            "interval": list(self.interval),
            "grid_spacing": self.grid_spacing,
            "trials": self.trials,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()
