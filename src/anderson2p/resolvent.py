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

import numpy as np

from .errors import NumericError, PreconditionError, ResonantEnergyError
from .geometry import Box2, Point2, exterior_boundary
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
) -> GreenColumn:
    """Solve ``(H - E) c = delta_x``; by symmetry ``c[y] = G(E; x, y)``.

    ``x`` defaults to the box center.  Raises ``ResonantEnergyError`` when E
    is within the guard of the spectrum, and ``NumericError`` when the
    residual ``|(H - E) c - delta_x|`` exceeds
    ``SPECTRAL_RTOL * max(1, |H - E| |c|)`` (spectral norm).
    """
    gap = spectral_gap(op, E)
    if gap <= RESONANCE_GUARD * _gap_scale(op, E):
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


def boundary_green_maxima(
    h: np.ndarray,
    eigenvalues: np.ndarray,
    center_index: int,
    boundary_indices: np.ndarray,
    E: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Max |G(E; center, y)| over the interior boundary of every box of a
    stack of same-layout operators ``h`` (``(nbox, n, n)``, with their
    ascending spectra ``(nbox, n)``), and the position of the attaining
    point in ``boundary_indices``.

    A box whose spectrum comes within the solver guard of E, the rule of
    ``classify.singular_mask_at``, gets ``inf`` at position -1; the others
    share one stacked solve of ``(H - E) c = delta_center``, each checked
    with ``green_column``'s residual bound (``NumericError`` on failure).
    A boundary-less layout gives 0 at position -1.
    """
    nbox, n = eigenvalues.shape
    values = np.full(nbox, np.inf)
    where = np.full(nbox, -1, dtype=np.int64)
    edge = np.maximum(np.abs(eigenvalues[:, 0]), np.abs(eigenvalues[:, -1]))
    gap = np.abs(eigenvalues - E).min(axis=1)
    solve = np.flatnonzero(gap > RESONANCE_GUARD * np.maximum(max(1.0, abs(E)), edge))
    if len(solve) == 0:
        return values, where
    hs = h[solve]
    rhs = np.zeros((len(solve), n, 1))
    rhs[:, center_index] = 1.0
    vec = np.linalg.solve(hs - E * np.eye(n), rhs)
    residual = np.linalg.norm(hs @ vec - E * vec - rhs, axis=(1, 2))
    shifted = np.abs(eigenvalues[solve][:, [0, -1]] - E).max(axis=1)
    bound = SPECTRAL_RTOL * np.maximum(1.0, shifted * np.linalg.norm(vec, axis=(1, 2)))
    if np.any(residual > bound):
        raise NumericError(
            f"Green's column residual {residual.max():.3e} exceeds tolerance")
    if len(boundary_indices) == 0:
        values[solve] = 0.0
        return values, where
    vals = np.abs(vec[:, boundary_indices, 0])
    where[solve] = np.argmax(vals, axis=1)
    values[solve] = vals[np.arange(len(solve)), where[solve]]
    return values, where


def boundary_green_max(op: FiniteOperator, E: float) -> tuple[float, np.ndarray | None]:
    """Max |G(E; center, y)| over the interior boundary and the attaining
    point ((0, None) without a boundary): the one-box
    ``boundary_green_maxima``.  Raises ``ResonantEnergyError`` when E is
    within the guard of the spectrum."""
    idx = op.boundary_indices()
    values, where = boundary_green_maxima(op.matrix[None], op.eigenvalues()[None],
                                          op.center_index(), idx, E)
    if values[0] == np.inf:
        raise ResonantEnergyError(
            f"energy {E} within guard of the spectrum; classify as resonant")
    if where[0] < 0:
        return 0.0, None
    return float(values[0]), op.points[idx[where[0]]]


def green_spectral(
    sd1: SpectralData,
    sd2: SpectralData,
    E: float,
    u: Point2,
    y: Point2,
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
    if np.abs(denom).min() <= RESONANCE_GUARD * scale:
        raise ResonantEnergyError(
            f"energy {E} within guard of a sum of factor eigenvalues"
        )
    a = sd1.eigenvectors[i_u1] * sd1.eigenvectors[i_y1]
    b = sd2.eigenvectors[i_u2] * sd2.eigenvectors[i_y2]
    return float(a @ (1.0 / denom) @ b)


@dataclass
class RecoveryResult:
    """Interior values of k eigenfunctions reconstructed from their
    exterior-boundary values, one column per energy.

    ``values`` is ``(n_interior, k)`` over ``op.box.interior_indices()``;
    ``max_error`` and ``psi_sup`` have length k: the largest deviation of a
    reconstruction from the given interior values, and the sup of the given
    values over the box and its exterior boundary."""

    values: np.ndarray
    max_error: np.ndarray
    psi_sup: np.ndarray


def boundary_recovery(
    op: FiniteOperator,
    energies: np.ndarray,
    psi: np.ndarray,
    ambient: Box2,
) -> RecoveryResult:
    """Reconstruct interior values of eigenfunctions from their values just
    outside the box.

    ``psi`` is an ``(ambient.npoints, k)`` array whose column j is
    the eigenfunction of energy ``energies[j]``, indexed by ``ambient``'s
    points; ``ambient`` must cover the box and its exterior boundary, and
    each column must satisfy the eigenvalue equation of the ambient operator
    on the box.  The geometry (exterior shell, boundary-to-exterior
    coupling, positions in ``ambient``) is computed once per call.  The
    interior reconstruction of a column is ``-(H - E)^{-1} w`` where
    ``w(v)`` sums psi over the exterior neighbours of ``v`` under the
    operator's adjacency; its deviation from the given values is reported
    as ``max_error`` (the identity residual, nonzero when psi is not an
    eigenfunction).  Raises ``ResonantEnergyError`` when any energy is
    within the guard of the box spectrum, and ``PreconditionError`` when
    ``ambient`` misses a point or the shapes of psi and energies disagree.
    """
    energies = np.asarray(energies, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if energies.ndim != 1 or psi.shape != (ambient.npoints, len(energies)):
        raise PreconditionError(
            f"psi must be ({ambient.npoints}, k) for k energies; got psi "
            f"{psi.shape} and energies {energies.shape}"
        )
    for E in energies.tolist():
        if spectral_gap(op, E) <= RESONANCE_GUARD * _gap_scale(op, E):
            raise ResonantEnergyError(
                f"energy {E} resonant with the box; recovery undefined")
    box = op.box
    ext = exterior_boundary(box)
    try:
        at_box, at_ext = ambient.index_of(op.points), ambient.index_of(ext)
    except KeyError:
        raise PreconditionError(
            "the ambient box must cover the box and its exterior boundary"
        ) from None
    bidx = op.boundary_indices()
    # couple boundary points to exterior neighbours under the operator's
    # own hop relation; these are exactly the hops the restriction drops
    coupling = pairwise_dist(op.points[bidx], ext, op.adjacency) == 1
    interior = box.interior_indices()
    recon = np.empty((op.n, len(energies)))
    for j, E in enumerate(energies.tolist()):
        w = np.zeros(op.n)
        w[bidx] = coupling @ psi[at_ext, j]
        recon[:, j] = -np.linalg.solve(op.matrix - E * np.eye(op.n), w)
    psi_sup = np.abs(psi[np.concatenate([at_box, at_ext])]).max(axis=0)
    max_error = np.abs(recon[interior] - psi[at_box[interior]]).max(axis=0, initial=0.0)
    return RecoveryResult(recon[interior], max_error, psi_sup)
