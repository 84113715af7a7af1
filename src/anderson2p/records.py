"""Line-delimited record persistence, the one record serializer, and the
record types the CLI builds itself (spectrum, Green's column, sample,
boundary recovery).

A record is its dataclass's fields plus ``kind``: every report type
derives from ``Record``, whose ``to_record`` is the only serializer, so the
format of each kind is written once, in its dataclass.  Records are one
JSON object per line with sorted keys; floats are written with Python's
shortest round-trip representation, so a reader recovers every numeric
field bit-exactly (the test suite's ``parse_record`` turns each record kind
back into its domain object).  Volatile provenance (timestamps, wall times)
lives in the run manifest, never in record lines, which makes repeated runs
with the same configuration byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, ClassVar, Iterable, Sequence

import numpy as np

from .disorder import DisorderSample


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


class Record:
    """A record type: its line is the dataclass's fields plus ``kind``.

    Each report dataclass that the CLI writes derives from this class and
    names its ``kind``; the fields are the record format, so it is written
    down once, in the dataclass.  Tuples become JSON lists, and a field
    that is itself a ``Record`` is written as its record, ``kind``
    included."""

    kind: ClassVar[str]

    def to_record(self) -> dict:
        rec = asdict(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Record):
                rec[f.name] = value.to_record()
        return {**rec, "kind": self.kind}


@dataclass
class SpectrumRecord(Record):
    kind = "spectrum"

    center: tuple[int, ...]
    radius: int
    eigenvalues: list[float]
    max_residual: float


@dataclass
class GreenRecord(Record):
    kind = "green_column"

    center: tuple[int, ...]
    radius: int
    energy: float
    source: tuple[int, ...]
    residual: float
    values: list[float]  # in box enumeration order


@dataclass
class SampleRecord(Record):
    kind = "sample"

    distribution: dict
    seed: int
    trial: int
    sites: list[list[int]]
    values: list[float]


@dataclass
class RecoveryRecord(Record):
    kind = "recovery"

    seed: int
    parent_radius: int
    sub_radius: int
    n_eigenpairs: int
    n_reconstructions: int
    n_skipped_resonant: int
    max_rel_error: float


def sample_record(sample: DisorderSample) -> SampleRecord:
    sites = sorted(sample.domain)
    return SampleRecord(
        distribution=sample.spec.to_dict(), seed=sample.seed, trial=sample.trial,
        sites=[list(s) for s in sites],
        values=[sample.values[s] for s in sites],
    )


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
