"""Lattice points, boxes, boundaries, projections, and separation predicates.

Two-particle configurations live on Z^d x Z^d.  All distances are sup-norm
(Chebyshev) over all coordinates unless a function takes an explicit
adjacency mode; the particle-exchange map ``sigma`` swaps the two particle
blocks.  Box radii arising from real-valued scale sequences are rounded up
before enumeration, which preserves every containment relation used by the
multi-scale predicates.

Everything here is a pure function of immutable values; point enumeration
is lexicographic in (particle 1 coords, particle 2 coords) so matrix index
maps are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError

ADJ_SUP = "sup"
ADJ_L1 = "l1"

_ADJ_ALIASES = {
    "sup": ADJ_SUP,
    "sup-literal": ADJ_SUP,
    "chebyshev": ADJ_SUP,
    "l1": ADJ_L1,
    "manhattan": ADJ_L1,
}


def normalize_adjacency(name: str) -> str:
    try:
        return _ADJ_ALIASES[name.lower()]
    except KeyError:
        raise InvalidInputError(f"unknown adjacency mode: {name!r}") from None


@dataclass(frozen=True)
class Point1:
    """Single-particle lattice site in Z^d."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) < 1:
            raise InvalidInputError("lattice points need dimension >= 1")

    @property
    def d(self) -> int:
        return len(self.coords)

    def to_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)


@dataclass(frozen=True)
class Point2:
    """Two-particle configuration: a pair of sites of equal dimension."""

    x1: Point1
    x2: Point1

    def __post_init__(self):
        if self.x1.d != self.x2.d:
            raise DimensionMismatchError(
                f"particle dimensions differ: {self.x1.d} vs {self.x2.d}"
            )

    @classmethod
    def of(cls, x1: Iterable[int], x2: Iterable[int]) -> "Point2":
        return cls(Point1(tuple(x1)), Point1(tuple(x2)))

    @property
    def d(self) -> int:
        return self.x1.d

    @property
    def flat(self) -> tuple[int, ...]:
        return self.x1.coords + self.x2.coords

    def sigma(self) -> "Point2":
        return Point2(self.x2, self.x1)

    def to_array(self) -> np.ndarray:
        return np.array(self.flat, dtype=np.int64)


def sup_dist1(a: Point1, b: Point1) -> int:
    if a.d != b.d:
        raise DimensionMismatchError("points of different dimension")
    return max(abs(x - y) for x, y in zip(a.coords, b.coords))


def sup_dist(a: Point2, b: Point2) -> int:
    if a.d != b.d:
        raise DimensionMismatchError("points of different dimension")
    return max(sup_dist1(a.x1, b.x1), sup_dist1(a.x2, b.x2))


def pair_separation(u: Point2, v: Point2) -> int:
    """Exchange-symmetrised center distance min(|u - v|, |sigma u - v|)."""
    return min(sup_dist(u, v), sup_dist(u.sigma(), v))


def unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D integer array in lexicographic order.

    The same array as ``np.unique(a, axis=0)``, from a lexsort and a
    row-change mask.  ``np.unique`` without index outputs asks
    ``np.ma.is_masked``, which imports ``numpy.ma`` on first use.
    """
    rows = a[np.lexsort(a.T[::-1])]
    changed = np.ones(len(rows), dtype=bool)
    changed[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[changed]


@lru_cache(maxsize=4096)
def _grid_points(center: tuple[int, ...], radius: int) -> np.ndarray:
    axes = [np.arange(c - radius, c + radius + 1, dtype=np.int64) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts.setflags(write=False)
    return pts


def _flat(x):
    """Coordinates of a ``Point1`` or ``Point2``; anything else as given."""
    if isinstance(x, Point2):
        return x.flat
    if isinstance(x, Point1):
        return x.coords
    return x


class _GridBox:
    """Positions in a box whose points are the lexicographic grid of
    ``_grid_points``; shared by ``Box1`` and ``Box2``."""

    def index_of(self, x) -> int | np.ndarray:
        """Position of a point, or of each row of an ``(N, D)`` integer
        array; ``KeyError`` for any point outside the box."""
        center = np.array(_flat(self.center))
        pts = np.asarray(_flat(x), dtype=np.int64)
        off = pts - (center - self.radius)
        w = 2 * self.radius + 1
        if pts.shape[-1] != len(center) or ((off < 0) | (off >= w)).any():
            raise KeyError(f"point outside the box at {_flat(self.center)}, "
                           f"radius {self.radius}")
        idx = off @ w ** np.arange(len(center) - 1, -1, -1)
        return int(idx) if pts.ndim == 1 else idx

    def center_index(self) -> int:
        return self.index_of(self.center)


@dataclass(frozen=True)
class Box1(_GridBox):
    """Single-particle box: all sites within sup-distance ``radius`` of the
    center.  Cardinality (2*radius+1)**d."""

    center: Point1
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidInputError("box radius must be >= 0")

    @classmethod
    def of_origin(cls, d: int, radius: int) -> "Box1":
        return cls(Point1((0,) * d), radius)

    @property
    def d(self) -> int:
        return self.center.d

    @property
    def npoints(self) -> int:
        return (2 * self.radius + 1) ** self.d

    def points(self) -> np.ndarray:
        """Lexicographically ordered (N, d) site array."""
        return _grid_points(self.center.coords, self.radius)

    def boundary_indices(self) -> np.ndarray:
        """Indices of the interior boundary (the sup-distance == radius
        shell); empty for radius 0."""
        if self.radius == 0:
            return np.empty(0, dtype=np.int64)
        dist = np.abs(self.points() - self.center.to_array()).max(axis=1)
        return np.nonzero(dist == self.radius)[0]


@dataclass(frozen=True)
class Box2(_GridBox):
    """Two-particle box around a center in Z^d x Z^d."""

    center: Point2
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidInputError("box radius must be >= 0")

    @classmethod
    def of_origin(cls, d: int, radius: int) -> "Box2":
        return cls(Point2.of((0,) * d, (0,) * d), radius)

    @property
    def d(self) -> int:
        return self.center.d

    @property
    def npoints(self) -> int:
        return (2 * self.radius + 1) ** (2 * self.d)

    def points(self) -> np.ndarray:
        """Lexicographically ordered (N, 2d) array of configurations."""
        return _grid_points(self.center.flat, self.radius)

    def sigma(self) -> "Box2":
        return Box2(self.center.sigma(), self.radius)

    def center_dists(self) -> np.ndarray:
        return np.abs(self.points() - self.center.to_array()).max(axis=1)

    def boundary_indices(self) -> np.ndarray:
        if self.radius == 0:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.center_dists() == self.radius)[0]

    def interior_indices(self) -> np.ndarray:
        return np.nonzero(self.center_dists() <= self.radius - 1)[0]


def exterior_boundary(b: Box2) -> np.ndarray:
    """Configurations outside the box at sup-distance exactly 1 from it
    (the sup-distance == radius+1 shell)."""
    outer = Box2(b.center, b.radius + 1)
    dist = outer.center_dists()
    return outer.points()[dist == b.radius + 1]


def is_interactive(b: Box2, r0: int) -> bool:
    """Whether the box meets the interaction layer |x1 - x2| <= r0.

    Closed form: the box intersects the layer iff the centers' particle
    separation is at most 2*radius + r0.
    """
    if r0 < 1:
        raise InvalidInputError("interaction range r0 must be >= 1")
    return sup_dist1(b.center.x1, b.center.x2) <= 2 * b.radius + r0


def projections(b: Box2) -> tuple[Box1, Box1]:
    """Per-particle projections of the box: (onto particle 1, onto
    particle 2)."""
    return Box1(b.center.x1, b.radius), Box1(b.center.x2, b.radius)
