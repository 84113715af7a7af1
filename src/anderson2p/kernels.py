"""Hot numeric kernels, vectorized in numpy.

The site-keyed hash behind every disorder draw, all-pairs lattice
distances, the 0/1 hop matrix of a point set, and per-shell maxima.
Kernels operate on plain int64/float64 arrays; all lattice-aware wrapping
lives in :mod:`anderson2p.geometry` and friends.
"""

from __future__ import annotations

import numpy as np

# splitmix64 constants; arithmetic is modulo 2**64.
_GOLD_INT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(1.0 / 9007199254740992.0)  # 2**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform01(seed: int, trial: int, coords: np.ndarray) -> np.ndarray:
    """Site-keyed uniform draws in [0, 1).

    The value at a site depends only on ``(seed, trial, coords_row)``, never
    on array order or on the other sites, so domains can be extended or
    reordered without changing any value.
    """
    coords = np.ascontiguousarray(coords, dtype=np.int64)
    if coords.ndim != 2:
        raise ValueError("coords must be a 2-d array of site coordinates")
    n, d = coords.shape
    if n == 0:
        return np.empty(0, dtype=np.float64)
    # scalar salts computed in python ints to avoid numpy scalar-overflow noise
    trial_salt = np.uint64((_GOLD_INT * (trial + 1)) & _MASK64)
    h = np.full(n, np.uint64(seed & _MASK64), dtype=np.uint64)
    h = _mix64(h ^ trial_salt)
    for i in range(d):
        c = coords[:, i].view(np.uint64)
        coord_salt = np.uint64((_GOLD_INT * (i + 1)) & _MASK64)
        h = _mix64(h ^ (c + coord_salt))
    return (h >> np.uint64(11)).astype(np.float64) * _U53


def _pairwise_dist(a: np.ndarray, b: np.ndarray, manhattan: bool) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    # chunk the row axis to keep the (na, nb, d) temporary small
    na = a.shape[0]
    out = np.empty((na, b.shape[0]), dtype=np.int64)
    step = max(1, 8_000_000 // max(1, b.shape[0] * a.shape[1]))
    for lo in range(0, na, step):
        hi = min(na, lo + step)
        diff = np.abs(a[lo:hi, None, :] - b[None, :, :])
        out[lo:hi] = diff.sum(axis=2) if manhattan else diff.max(axis=2)
    return out


def pairwise_dist(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """All-pairs lattice distances between two point sets.

    ``mode`` is ``"sup"`` (Chebyshev over all coordinates) or ``"l1"``
    (Manhattan); rows index ``a``, columns ``b``.
    """
    return _pairwise_dist(a, b, mode == "l1")


def adjacency_matrix(pts: np.ndarray, mode: str) -> np.ndarray:
    """0/1 hopping matrix: entry (i, j) is 1 iff dist(pts[i], pts[j]) == 1
    under the requested metric, 0 on the diagonal."""
    return (_pairwise_dist(pts, pts, mode == "l1") == 1).astype(np.float64)


def shell_max(values: np.ndarray, dists: np.ndarray, nshells: int) -> np.ndarray:
    """Per-shell maxima: ``out[s] = max(values[dists == s])`` (0 for empty
    shells).  Used for radial decay profiles of eigenvectors."""
    prof = np.zeros(nshells, dtype=np.float64)
    np.maximum.at(prof, np.asarray(dists, dtype=np.int64),
                  np.asarray(values, dtype=np.float64))
    return prof
