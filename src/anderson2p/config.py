"""Experiment configuration: file format, validation, and hashing.

A configuration is a JSON object with the documented keys below; presets
fill in schedule defaults.  The keys, their defaults and the hashed fields
all come from the fields of ``ExperimentConfig``: a key that is absent
takes the field's default, and the config hash covers every field but
``output_dir`` (timestamps live in the manifest), so the hash changes iff a
field that can affect results does.

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
from dataclasses import asdict, dataclass, field as dc_field, fields
from typing import Any, Optional

from .disorder import DistributionSpec, InteractionSpec
from .errors import InvalidInputError
from .geometry import normalize_adjacency
from .msa import PRESETS, ScaleSchedule, schedule as build_schedule

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError([("config", "top level must be a JSON object")])
        diags = [(key, "unknown configuration key") for key in raw
                 if key not in _KEYS]
        # the keys given; the dataclass defaults fill in the rest
        given = {key: value for key, value in raw.items() if key in _KEYS}
        preset = given.get("preset", cls.preset)
        if preset not in ("desk", "asymptotic", "custom"):
            diags.append(("preset", f"must be desk|asymptotic|custom, got {preset!r}"))
            given["preset"] = preset = "desk"
        # a custom schedule starts from the desk values
        base = dict(PRESETS["asymptotic" if preset == "asymptotic" else "desk"])
        default_g = base.pop("g")
        schedule = given.get("schedule") or {}
        if isinstance(schedule, dict):
            base.update(schedule)
        else:
            diags.append(("schedule", "must be a JSON object"))
        given["schedule"] = base
        if isinstance(given.get("interval"), list):
            given["interval"] = tuple(given["interval"])
        cfg = cls(**given)
        if cfg.g is None:
            cfg.g = default_g
        diags.extend(cfg._validate())
        if diags:
            raise ConfigError(diags)
        return cfg

    def _validate(self) -> list[tuple[str, str]]:
        diags = []
        if not _is_int(self.dimension) or self.dimension < 1:
            diags.append(("dimension", "must be an integer >= 1"))
        if not isinstance(self.adjacency, str):
            diags.append(("adjacency", "must be a string"))
        else:
            try:
                self.adjacency = normalize_adjacency(self.adjacency)
            except InvalidInputError as e:
                diags.append(("adjacency", str(e)))
        for name, spec in (("distribution", DistributionSpec),
                           ("interaction", InteractionSpec)):
            if not isinstance(getattr(self, name), dict):
                diags.append((name, "must be a JSON object"))
                continue
            try:
                spec.from_dict(getattr(self, name))
            except (ValueError, KeyError, TypeError) as e:
                diags.append((name, str(e)))
        if not _is_number(self.g) or not math.isfinite(self.g):
            diags.append(("g", "must be a finite number"))
        if not _is_int(self.trials) or self.trials < 0:
            diags.append(("trials", "must be a nonnegative integer"))
        if not _is_int(self.seed):
            diags.append(("seed", "must be an integer"))
        if (
            not isinstance(self.interval, tuple)
            or len(self.interval) != 2
            or not all(_is_number(x) for x in self.interval)
            or not self.interval[0] < self.interval[1]
        ):
            diags.append(("interval", "must be numeric [a, b] with a < b"))
        if self.grid_spacing is not None and (
            not _is_number(self.grid_spacing)
            or not 0 < self.grid_spacing < math.inf
        ):
            diags.append(("grid_spacing", "must be null or a positive finite number"))
        for key in ("L0", "alpha", "gamma", "m0", "beta", "p", "q", "J", "k_max"):
            if key not in self.schedule:
                diags.append((f"schedule.{key}", "missing"))
            elif not _is_number(self.schedule[key]):
                diags.append((f"schedule.{key}", "must be a number"))
        if not (self.schedule.get("p_tilde") is None
                or _is_number(self.schedule["p_tilde"])):
            diags.append(("schedule.p_tilde", "must be null or a number"))
        if not (self.output_dir is None or isinstance(self.output_dir, str)):
            diags.append(("output_dir", "must be null or a string"))
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
        """All fields that can influence emitted results: every dataclass
        field but the output location."""
        d = asdict(self)
        del d["output_dir"]
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


#: the configuration file's keys, one per field
_KEYS = frozenset(f.name for f in fields(ExperimentConfig))
