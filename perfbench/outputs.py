"""Output check: a chunk's records against the stored reference.

Booleans, integers, strings and ``None`` must match exactly; floats must
agree to ``RTOL`` relative (plus ``ATOL`` absolute, for values near zero).
The tolerance lets LAPACK changes through: with the BLAS thread count
changed, the last bits of Green's-function maxima move while no verdict
does.  Workload invariants are checked separately (``workloads.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12


def load_reference(path: Path) -> dict[int, list[dict]]:
    """Stored records, keyed by chunk index."""
    out = {}
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            out[entry["chunk"]] = entry["records"]
    return out


def diff(got, want, where: str = "") -> list[str]:
    """Differences between two JSON values beyond the float tolerance."""
    if isinstance(want, bool) or isinstance(got, bool):
        same = type(got) is type(want) and got == want
    elif isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            same = False
        elif math.isnan(want) or math.isnan(got):
            same = math.isnan(want) and math.isnan(got)
        elif math.isinf(want) or math.isinf(got):
            same = got == want
        else:
            same = abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL
    elif isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in diff(got[key], want[key], f"{where}.{key}")]
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in diff(g, w, f"{where}[{i}]")]
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]
