"""Green's functions of finite-volume Hamiltonians.

``green_column`` solves ``(H - E) c = delta_x`` by a direct (pivoted LU)
factorization, which stays accurate for real energies inside the spectral
hull as long as E keeps a guarded distance from the eigenvalues, and checks
the residual of the solution.  ``green_spectral`` evaluates the same
quantity on non-interactive boxes through the eigendecomposition of the two
single-particle factors.

All dense LAPACK in the package goes through ``numpy.linalg`` (``solve`` is
the pivoted LU ``gesv``): scipy bundles a second OpenBLAS whose thread pool
and numpy's wait on each other when calls alternate between them.  No
factorization is cached; every (operator, energy) pair is solved once.

Sign conventions.  Both routines return entries of ``(H - E)^{-1}``; in the
spectral form the denominators are ``(E_{s1} + E_{s2}) - E``.  The boundary
reconstruction identity for an eigenfunction of a larger operator then
carries a minus sign:

    psi(u) = - sum_{v in boundary} sum_{v' outside, v'~v} G(E; u, v) psi(v')

which is fixed by the 1x1-box case ``(diag - E) psi(u) = -sum psi(v')`` and
verified numerically in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericError, PreconditionError, ResonantEnergyError
from .geometry import Point2
from .kernels import pairwise_dist
from .operators import SPECTRAL_RTOL, FiniteOperator, SpectralData

#: relative spectral-gap guard below which an energy counts as resonant for
#: solving purposes (callers should classify the box resonant instead)
RESONANCE_GUARD = 1e-12


def _gap_scale(op: FiniteOperator, E: float) -> float:
    return max(1.0, abs(E), op.norm2())


def spectral_gap(op: FiniteOperator, E: float) -> float:
    ev = op.eigenvalues()
    return float(np.abs(ev - E).min())


@dataclass
class GreenColumn:
    """One column ``G(E; x, .)`` of the box Green's function."""

    energy: float
    source_index: int
    op: FiniteOperator
    vector: np.ndarray
    residual: float

    def at(self, y) -> float:
        return float(self.vector[self.op.index_of(y)])

    def boundary_max(self) -> tuple[float, np.ndarray | None]:
        """Max |G(E; x, y)| over the interior boundary and the attaining
        point; (0, None) for a degenerate boundary-less box."""
        idx = self.op.boundary_indices()
        if len(idx) == 0:
            return 0.0, None
        vals = np.abs(self.vector[idx])
        j = int(np.argmax(vals))
        return float(vals[j]), self.op.points[idx[j]]


def green_column(
    op: FiniteOperator,
    E: float,
    x: Point2 | int | None = None,
    guard: float = RESONANCE_GUARD,
) -> GreenColumn:
    """Solve ``(H - E) c = delta_x``; by symmetry ``c[y] = G(E; x, y)``.

    ``x`` defaults to the box center.  Raises ``ResonantEnergyError`` when E
    is within the guard of the spectrum, and ``NumericError`` when the
    residual ``|(H - E) c - delta_x|`` exceeds
    ``SPECTRAL_RTOL * max(1, |H - E| |c|)`` (spectral norm).
    """
    gap = spectral_gap(op, E)
    if gap <= guard * _gap_scale(op, E):
        raise ResonantEnergyError(
            f"energy {E} within {gap:.3e} of the spectrum; classify as resonant"
        )
    idx = x if isinstance(x, (int, np.integer)) else (
        op.center_index() if x is None else op.index_of(x)
    )
    rhs = np.zeros(op.n)
    rhs[idx] = 1.0
    vec = np.linalg.solve(op.matrix - E * np.eye(op.n), rhs)
    residual = float(np.linalg.norm((op.matrix @ vec) - E * vec - rhs))
    shifted_norm = float(np.abs(op.eigenvalues()[[0, -1]] - E).max())
    if residual > SPECTRAL_RTOL * max(1.0, shifted_norm * float(np.linalg.norm(vec))):
        raise NumericError(f"Green's column residual {residual:.3e} exceeds tolerance")
    return GreenColumn(float(E), int(idx), op, vec, residual)


def boundary_green_max(
    op: FiniteOperator, E: float, guard: float = RESONANCE_GUARD
) -> tuple[float, np.ndarray | None]:
    """Max |G(E; center, y)| over the interior boundary, via one solve."""
    col = green_column(op, E, None, guard)
    return col.boundary_max()


def green_spectral(
    sd1: SpectralData,
    sd2: SpectralData,
    E: float,
    u: Point2,
    y: Point2,
    guard: float = RESONANCE_GUARD,
) -> float:
    """Green's function of a non-interactive box from its single-particle
    factors:

        G(E; u, y) = sum_{s1,s2} psi1_{s1}(u1) psi1_{s1}(y1)
                                 psi2_{s2}(u2) psi2_{s2}(y2)
                         / (E_{1;s1} + E_{2;s2} - E)

    Under ``l1`` adjacency this equals ``green_column`` on the assembled
    two-particle operator.
    """
    i_u1, i_y1 = sd1.op.index_of(u.x1), sd1.op.index_of(y.x1)
    i_u2, i_y2 = sd2.op.index_of(u.x2), sd2.op.index_of(y.x2)
    denom = np.add.outer(sd1.eigenvalues, sd2.eigenvalues) - E
    scale = max(1.0, abs(E), float(np.abs(denom + E).max()))
    if np.abs(denom).min() <= guard * scale:
        raise ResonantEnergyError(
            f"energy {E} within guard of a sum of factor eigenvalues"
        )
    a = sd1.eigenvectors[i_u1] * sd1.eigenvectors[i_y1]
    b = sd2.eigenvectors[i_u2] * sd2.eigenvectors[i_y2]
    return float(a @ (1.0 / denom) @ b)


@dataclass
class RecoveryResult:
    """Outcome of reconstructing eigenfunction values inside a box from its
    exterior-boundary values."""

    values: dict[tuple[int, ...], float]
    max_error: float
    psi_sup: float
    n_interior: int

    def within(self, rtol: float = 1e-6) -> bool:
        return self.max_error <= rtol * self.psi_sup


def boundary_recovery(
    op: FiniteOperator,
    E: float,
    psi: Mapping[tuple[int, ...], float],
    guard: float = RESONANCE_GUARD,
) -> RecoveryResult:
    """Reconstruct interior values of an eigenfunction from its values just
    outside the box.

    ``psi`` must cover the box and its exterior boundary and satisfy the
    eigenvalue equation of the ambient operator on the box.  The interior
    reconstruction is ``-(H - E)^{-1} w`` where ``w(v)`` sums psi over the
    exterior neighbours of ``v`` under the operator's adjacency; the
    deviation from the provided values is reported as ``max_error`` (it is
    the identity residual, nonzero when psi is not an eigenfunction).
    """
    gap = spectral_gap(op, E)
    if gap <= guard * _gap_scale(op, E):
        raise ResonantEnergyError("energy resonant with the box; recovery undefined")
    box = op.box
    from .geometry import exterior_boundary  # local import to avoid cycle noise

    ext = exterior_boundary(box)
    try:
        ext_vals = np.array([psi[tuple(int(c) for c in p)] for p in ext])
    except KeyError as e:
        raise PreconditionError(
            f"psi must cover the exterior boundary; missing {e.args[0]}"
        ) from None
    bidx = op.boundary_indices()
    w = np.zeros(op.n)
    if len(ext):
        # couple boundary points to exterior neighbours under the operator's
        # own hop relation; these are exactly the hops the restriction drops
        dist = pairwise_dist(op.points[bidx], ext, op.adjacency)
        w[bidx] = (dist == 1) @ ext_vals
    recon = -np.linalg.solve(op.matrix - E * np.eye(op.n), w)
    interior = box.interior_indices()
    psi_box = np.array(
        [psi[tuple(int(c) for c in p)] for p in op.points], dtype=np.float64
    )
    psi_sup = float(np.abs(np.concatenate([psi_box, ext_vals])).max()) if op.n else 0.0
    err = (
        float(np.abs(recon[interior] - psi_box[interior]).max())
        if len(interior)
        else 0.0
    )
    values = {
        tuple(int(c) for c in op.points[i]): float(recon[i]) for i in interior
    }
    return RecoveryResult(values, err, psi_sup, len(interior))
