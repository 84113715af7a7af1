"""Seeded IID site potentials, the two-particle field, and the interaction.

Potential values are generated by a site-keyed counter scheme: the value at
a site is a pure function of (base seed, trial index, site coordinates), so
the same site receives the same value regardless of enumeration order and a
domain can be extended without disturbing existing draws.  Re-running any
experiment with the same configuration therefore reproduces samples
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    Box1,
    Box2,
    Point1,
    projections,
    unique_rows,
)
from .kernels import uniform01

_DENSITY_TOL = 1e-10


@dataclass(frozen=True)
class DistributionSpec:
    """Marginal distribution of the site potential.

    Supported kinds: ``uniform`` on [a, b]; ``truncated-gaussian`` with
    location/scale restricted to [a, b]; ``piecewise-density`` with a
    piecewise-constant density over equal cells of [a, b].  All are bounded
    with compact support and integrate to one.
    """

    kind: str
    a: float
    b: float
    mu: float | None = None
    sigma: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.a >= self.b:
            raise InvalidInputError("support must be a finite interval [a, b), a < b")
        if self.kind == "uniform":
            pass
        elif self.kind == "truncated-gaussian":
            if self.mu is None or self.sigma is None or self.sigma <= 0:
                raise InvalidInputError("truncated-gaussian needs mu and sigma > 0")
        elif self.kind == "piecewise-density":
            if not self.weights or any(w < 0 for w in self.weights):
                raise InvalidInputError("piecewise density needs nonnegative weights")
            if sum(self.weights) <= 0:
                raise InvalidInputError("piecewise density needs positive total mass")
        else:
            raise InvalidInputError(f"unknown distribution kind: {self.kind!r}")
        du = self.density_integral()
        if abs(du - 1.0) > _DENSITY_TOL:
            raise InvalidInputError(f"density integrates to {du}, not 1")

    @classmethod
    def uniform(cls, a: float = 0.0, b: float = 1.0) -> "DistributionSpec":
        return cls("uniform", a, b)

    @classmethod
    def truncated_gaussian(
        cls, mu: float, sigma: float, a: float, b: float
    ) -> "DistributionSpec":
        return cls("truncated-gaussian", a, b, mu=mu, sigma=sigma)

    @classmethod
    def piecewise(cls, weights: Iterable[float], a: float, b: float) -> "DistributionSpec":
        w = tuple(float(x) for x in weights)
        s = sum(w)
        if s <= 0:
            raise InvalidInputError("piecewise density needs positive total mass")
        return cls("piecewise-density", a, b, weights=tuple(x / s for x in w))

    def density_integral(self) -> float:
        if self.kind == "piecewise-density":
            return float(sum(self.weights))
        return 1.0  # uniform and truncated gaussian are normalized by construction

    def _z(self, x: float) -> float:
        return (x - self.mu) / self.sigma

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF map from uniform [0, 1) draws to the distribution."""
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * u
        if self.kind == "truncated-gaussian":
            from scipy.special import ndtr, ndtri

            lo, hi = ndtr(self._z(self.a)), ndtr(self._z(self.b))
            x = self.mu + self.sigma * ndtri(lo + u * (hi - lo))
            return np.clip(x, self.a, self.b)
        # piecewise-constant density: piecewise-linear inverse CDF
        w = np.array(self.weights)
        cdf = np.concatenate([[0.0], np.cumsum(w)])
        cdf[-1] = 1.0
        cell = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(w) - 1)
        frac = (u - cdf[cell]) / np.where(w[cell] > 0, w[cell], 1.0)
        width = (self.b - self.a) / len(w)
        return self.a + (cell + frac) * width

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "support": [self.a, self.b]}
        if self.mu is not None:
            d["mu"] = self.mu
        if self.sigma is not None:
            d["sigma"] = self.sigma
        if self.weights is not None:
            d["weights"] = list(self.weights)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "DistributionSpec":
        a, b = d.get("support", [0.0, 1.0])
        kind = d.get("kind", "uniform")
        if kind == "uniform":
            return cls.uniform(a, b)
        if kind == "truncated-gaussian":
            return cls.truncated_gaussian(d["mu"], d["sigma"], a, b)
        if kind == "piecewise-density":
            return cls.piecewise(d["weights"], a, b)
        raise InvalidInputError(f"unknown distribution kind: {kind!r}")


@dataclass(frozen=True)
class InteractionSpec:
    """Finite-range pair interaction depending only on particle separation.

    Vanishes beyond ``r0``; symmetry under particle exchange holds by
    construction because only the separation enters.
    """

    r0: int
    profile: tuple[float, ...]  # value at separations 0 .. r0

    def __post_init__(self):
        if self.r0 < 1:
            raise InvalidInputError("interaction range r0 must be >= 1")
        if len(self.profile) != self.r0 + 1:
            raise InvalidInputError("profile must list values for separations 0..r0")
        if not all(np.isfinite(self.profile)):
            raise InvalidInputError("interaction profile must be finite")

    @classmethod
    def triangular(cls, r0: int = 1, u0: float = 1.0) -> "InteractionSpec":
        """Linearly decaying profile u0 * (1 - s/(r0+1)) on s = 0..r0."""
        return cls(r0, tuple(u0 * (1.0 - s / (r0 + 1.0)) for s in range(r0 + 1)))

    def at_separation(self, s: np.ndarray | int):
        s = np.asarray(s)
        table = np.array(self.profile + (0.0,))
        return table[np.minimum(s, self.r0 + 1)]

    @classmethod
    def from_dict(cls, d: Mapping) -> "InteractionSpec":
        if "profile" in d:
            return cls(int(d["r0"]), tuple(float(x) for x in d["profile"]))
        return cls.triangular(int(d.get("r0", 1)), float(d.get("u0", 1.0)))


@dataclass(frozen=True)
class DisorderSample:
    """One realization of the IID site potential over a finite domain."""

    spec: DistributionSpec
    seed: int
    trial: int
    domain: frozenset[tuple[int, ...]]
    values: dict[tuple[int, ...], float] = field(compare=False)

    @property
    def d(self) -> int | None:
        return len(next(iter(self.domain))) if self.domain else None

    def values_at_unchecked(self, sites: np.ndarray) -> np.ndarray:
        """Vectorized lookup for an (N, d) site array, recomputed from the
        site-keyed generator (identical to the stored map by construction)
        with no domain check; for callers that already validated coverage
        (e.g. operator assembly, which checks the box projections once)."""
        return self.spec.transform(uniform01(self.seed, self.trial, sites))


def sample_potential(
    spec: DistributionSpec,
    seed: int,
    trial: int,
    domain: Iterable[Point1] | np.ndarray,
) -> DisorderSample:
    """Draw the site potential over ``domain``; identical inputs give
    bit-identical samples.  An empty domain yields an empty sample."""
    if isinstance(domain, np.ndarray):
        sites = np.asarray(domain, dtype=np.int64)
        if sites.ndim == 1:
            sites = sites[:, None]
    else:
        rows = [p.coords if isinstance(p, Point1) else tuple(p) for p in domain]
        sites = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    if sites.shape[0] == 0:
        return DisorderSample(spec, seed, trial, frozenset(), {})
    sites = unique_rows(sites)
    vals = spec.transform(uniform01(seed, trial, sites))
    keys = [tuple(int(c) for c in row) for row in sites]
    return DisorderSample(
        spec, seed, trial, frozenset(keys), dict(zip(keys, vals.tolist()))
    )


def domain_for_boxes(boxes: Iterable[Box2 | Box1]) -> np.ndarray:
    """Single-particle sites needed to assemble operators on the boxes
    (union of all projections)."""
    parts = []
    for b in boxes:
        if isinstance(b, Box2):
            parts.extend(p.points() for p in projections(b))
        else:
            parts.append(b.points())
    if not parts:
        return np.empty((0, 1), dtype=np.int64)
    return unique_rows(np.vstack(parts))
