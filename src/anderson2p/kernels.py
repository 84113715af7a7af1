"""Hot numeric kernels, vectorized in numpy.

The site-keyed hash behind every disorder draw, all-pairs lattice
distances, the 0/1 hop matrix of a point set (from the stencil of unit
steps), and per-shell maxima.
Kernels operate on plain int64/float64 arrays; all lattice-aware wrapping
lives in :mod:`anderson2p.geometry` and friends.
"""

from __future__ import annotations

import math

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


def pairwise_dist(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """All-pairs lattice distances between two point sets.

    ``mode`` is ``"sup"`` (Chebyshev over all coordinates) or ``"l1"``
    (Manhattan); rows index ``a``, columns ``b``.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    # chunk the row axis to keep the (na, nb, d) temporary small
    na = a.shape[0]
    out = np.empty((na, b.shape[0]), dtype=np.int64)
    step = max(1, 8_000_000 // max(1, b.shape[0] * a.shape[1]))
    for lo in range(0, na, step):
        hi = min(na, lo + step)
        diff = np.abs(a[lo:hi, None, :] - b[None, :, :])
        out[lo:hi] = diff.sum(axis=2) if mode == "l1" else diff.max(axis=2)
    return out


def _unit_steps(dim: int, mode: str) -> np.ndarray:
    """The offsets at lattice distance one in ``dim`` coordinates: the
    ``2 dim`` axis steps under ``"l1"``, the ``3**dim - 1`` nonzero points
    of {-1, 0, 1}**dim under ``"sup"``."""
    if mode == "l1":
        eye = np.eye(dim, dtype=np.int64)
        return np.concatenate([eye, -eye])
    cube = np.indices((3,) * dim).reshape(dim, -1).T - 1
    return cube[np.abs(cube).sum(axis=1) > 0]


def adjacency_matrix(pts: np.ndarray, mode: str) -> np.ndarray:
    """0/1 hopping matrix: entry (i, j) is 1 iff dist(pts[i], pts[j]) == 1
    under the requested metric, 0 on the diagonal.

    Built from the stencil of unit steps, with no all-pairs distances:
    each point gets its lexicographic index in its bounding box widened by
    one site at every face, so a step is one index offset and never wraps
    round a face; the neighbours of a point along a step are the points
    whose index is its own plus that offset.  Beyond the ``(N, N)`` output
    this takes O(N x degree) memory.
    """
    pts = np.ascontiguousarray(pts, dtype=np.int64)
    n, dim = pts.shape
    h = np.zeros((n, n))
    if n == 0:
        return h
    low = pts.min(axis=0) - 1
    extent = [int(e) for e in pts.max(axis=0) - low + 2]
    if math.prod(extent) >= 2**62:
        raise ValueError("points span too wide a box for int64 indices")
    strides = np.array([math.prod(extent[i + 1:]) for i in range(dim)], dtype=np.int64)
    index = (pts - low) @ strides
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    rows = np.arange(n)
    for offset in _unit_steps(dim, mode) @ strides:
        # points sharing a position (allowed) form one run of ``ordered``
        first = np.searchsorted(ordered, index + offset, "left")
        count = np.searchsorted(ordered, index + offset, "right") - first
        run_start = np.repeat(first - np.cumsum(count) + count, count)
        h[np.repeat(rows, count), order[np.arange(count.sum()) + run_start]] = 1.0
    return h


def shell_max(values: np.ndarray, dists: np.ndarray, nshells: int) -> np.ndarray:
    """Per-shell maxima: ``out[s] = max(values[dists == s])`` (0 for empty
    shells).  Used for radial decay profiles of eigenvectors."""
    prof = np.zeros(nshells, dtype=np.float64)
    np.maximum.at(prof, np.asarray(dists, dtype=np.int64),
                  np.asarray(values, dtype=np.float64))
    return prof
