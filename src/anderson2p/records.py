"""Line-delimited record persistence and round-trip parsing.

Records are one JSON object per line with sorted keys; floats are written
with Python's shortest round-trip representation, so parsing a record
recovers every numeric field bit-exactly.  Volatile provenance (timestamps,
wall times) lives in the run manifest, never in record lines, which makes
repeated runs with the same configuration byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .classify import ClassificationReport, NtToNsReport
from .disorder import DisorderSample, DistributionSpec, sample_potential
from .errors import InvalidInputError
from .experiment import DecayFit, EstimateRecord
from .msa import CounterReport, InductiveStepReport


def dumps_record(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, allow_nan=True)


def write_records(path: Path | str, records: Iterable[dict], config_hash: str) -> int:
    """Write records as JSONL, stamping each with the run's config hash.
    Returns the number of lines written."""
    n = 0
    with open(path, "w") as fh:
        for rec in records:
            rec = dict(rec)
            rec["config_hash"] = config_hash
            fh.write(dumps_record(rec) + "\n")
            n += 1
    return n


def read_records(path: Path | str) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


@dataclass
class SpectrumRecord:
    center: tuple[int, ...]
    radius: int
    eigenvalues: list[float]
    max_residual: float

    def to_record(self) -> dict:
        return {
            "kind": "spectrum", "center": list(self.center),
            "radius": self.radius, "eigenvalues": self.eigenvalues,
            "max_residual": self.max_residual,
        }


@dataclass
class GreenRecord:
    center: tuple[int, ...]
    radius: int
    energy: float
    source: tuple[int, ...]
    residual: float
    values: list[float]  # in box enumeration order

    def to_record(self) -> dict:
        return {
            "kind": "green_column", "center": list(self.center),
            "radius": self.radius, "energy": self.energy,
            "source": list(self.source), "residual": self.residual,
            "values": self.values,
        }


@dataclass
class SampleRecord:
    distribution: dict
    seed: int
    trial: int
    sites: list[list[int]]
    values: list[float]

    def to_record(self) -> dict:
        return {
            "kind": "sample", "distribution": self.distribution,
            "seed": self.seed, "trial": self.trial,
            "sites": self.sites, "values": self.values,
        }

    def to_sample(self) -> DisorderSample:
        """Rebuild the domain object; regenerated values must equal the
        recorded ones (the record is a pure function of its keys)."""
        spec = DistributionSpec.from_dict(self.distribution)
        sample = sample_potential(spec, self.seed, self.trial,
                                  np.array(self.sites, dtype=np.int64))
        for site, val in zip(self.sites, self.values):
            if sample.values[tuple(site)] != val:
                raise InvalidInputError("sample record inconsistent with its keys")
        return sample


@dataclass
class RecoveryRecord:
    seed: int
    parent_radius: int
    sub_radius: int
    n_eigenpairs: int
    n_reconstructions: int
    n_skipped_resonant: int
    max_rel_error: float

    def to_record(self) -> dict:
        return {
            "kind": "recovery", "seed": self.seed,
            "parent_radius": self.parent_radius, "sub_radius": self.sub_radius,
            "n_eigenpairs": self.n_eigenpairs,
            "n_reconstructions": self.n_reconstructions,
            "n_skipped_resonant": self.n_skipped_resonant,
            "max_rel_error": self.max_rel_error,
        }


def sample_record(sample: DisorderSample) -> SampleRecord:
    sites = sorted(sample.domain)
    return SampleRecord(
        distribution=sample.spec.to_dict(), seed=sample.seed, trial=sample.trial,
        sites=[list(s) for s in sites],
        values=[sample.values[s] for s in sites],
    )


def _tupled(seq) -> tuple[int, ...]:
    return tuple(int(x) for x in seq)


def parse_record(rec: dict):
    """Parse one record dict back into its domain object.

    Unknown kinds raise; the CLI never emits kinds this function cannot
    parse.
    """
    kind = rec.get("kind")
    if kind == "estimate":
        return EstimateRecord.from_record(rec)
    if kind == "classification":
        fields = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        fields["center"] = _tupled(fields["center"])
        if fields.get("gf_point") is not None:
            fields["gf_point"] = _tupled(fields["gf_point"])
        if fields.get("nt_point") is not None:
            fields["nt_point"] = _tupled(fields["nt_point"])
        return ClassificationReport(**fields)
    if kind == "counter_report":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        for key in ("singular_ni", "singular_i", "witnesses_ni", "witnesses_i",
                    "witnesses_all"):
            f[key] = [_tupled(c) for c in f[key]]
        f["center"] = _tupled(f["center"])
        return CounterReport(**f)
    if kind == "inductive_step":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        return InductiveStepReport(**f)
    if kind == "nt_to_ns":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        return NtToNsReport(**f)
    if kind == "decay_fit":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["loc_center"] = _tupled(f["loc_center"])
        return DecayFit(**f)
    if kind == "sample":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        return SampleRecord(**f)
    if kind == "spectrum":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        return SpectrumRecord(**f)
    if kind == "green_column":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        f["source"] = _tupled(f["source"])
        return GreenRecord(**f)
    if kind == "recovery":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        return RecoveryRecord(**f)
    if kind in ("parameter_report", "schedule", "initial_certificate",
                "wegner_row", "error", "localization_row", "g_trend_summary"):
        return rec
    raise InvalidInputError(f"cannot parse record of kind {kind!r}")


def write_matrix_triplets(matrix: np.ndarray, fh: IO[str]) -> None:
    """Dump a dense matrix as 'row col value' triplets at 17 significant
    digits, one nonzero per line, for external cross-checks."""
    n, m = matrix.shape
    for i in range(n):
        for j in range(m):
            v = matrix[i, j]
            if v != 0.0:
                fh.write(f"{i} {j} {v:.17g}\n")


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Small comma-separated table for plotting by external tools."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
