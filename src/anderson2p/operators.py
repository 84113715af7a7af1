"""Finite-volume Hamiltonians on lattice boxes and their spectra.

The two-particle operator has hopping 1 between configurations at lattice
distance one (under the configured adjacency mode) and diagonal
``U(x) + g * (V(x1) + V(x2))``; hops leaving the box are dropped (plain
Dirichlet restriction).  The single-particle operator has diagonal
``g * V(x)``.  Matrices are dense real symmetric; the full spectrum is what
the resonance and non-tunnelling classifiers consume, so a dense
eigensolver is the right tool at these volumes.

Under the ``l1`` adjacency the two-particle operator on a non-interactive
box is exactly the tensor sum of its two single-particle factors, so its
spectrum equals all pairwise sums of the factor spectra
(``single_particle_factors``); the test suite checks that identity.  Under
the ``sup`` adjacency the two-particle hop set also moves both particles at
once and the tensor identity does not hold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .disorder import DisorderSample, InteractionSpec
from .errors import NumericError, OutOfDomainError
from .geometry import (
    Box1,
    Box2,
    normalize_adjacency,
    projections,
)
from .kernels import adjacency_matrix

#: relative tolerance for eigensolver residuals and orthonormality
SPECTRAL_RTOL = 1e-8

#: largest stack of box matrices one ``family_spectra`` eigensolve takes
FAMILY_BYTES = 1 << 24


@dataclass
class FiniteOperator:
    """Assembled Hermitian (real symmetric) finite-volume Hamiltonian."""

    box: Box2 | Box1
    points: np.ndarray  # (N, D) configuration/site array, lexicographic
    matrix: np.ndarray  # (N, N) float64 symmetric
    adjacency: str
    g: float
    sample: DisorderSample
    interaction: Optional[InteractionSpec] = None
    particle: Optional[int] = None  # 1 or 2 for single-particle operators
    _eigenvalues: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def index_of(self, x) -> int:
        return self.box.index_of(x)

    def center_index(self) -> int:
        return self.box.center_index()

    def boundary_indices(self) -> np.ndarray:
        return self.box.boundary_indices()

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues; cached (cheaper than full eigenpairs)."""
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.matrix)
        return self._eigenvalues


@dataclass
class SpectralData:
    """Full eigendecomposition with per-state residual norms (``eigh_stack``)."""

    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns
    residual_norms: np.ndarray
    op: FiniteOperator

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _check_domain(sample: DisorderSample, sites: np.ndarray, what: str):
    for row in sites:
        if tuple(int(c) for c in row) not in sample.domain:
            raise OutOfDomainError(
                f"sample domain does not cover {what}: missing site {tuple(row)}"
            )


def check_projections(box: Box2, sample: DisorderSample) -> None:
    """Raise ``OutOfDomainError`` unless the sample covers both projections
    of the box, and with them every two-particle box inside it."""
    p1, p2, _ = projections(box)
    _check_domain(sample, p1.points(), "projection of particle 1")
    _check_domain(sample, p2.points(), "projection of particle 2")


def assemble_two_particle(
    box: Box2,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> FiniteOperator:
    """Two-particle Hamiltonian on the box with Dirichlet restriction: the
    one-box ``box_family`` at its center."""
    adjacency = normalize_adjacency(adjacency)
    check_projections(box, sample)
    h = box_family(np.array([box.center.flat]), box.radius, sample,
                   interaction, g, adjacency)[0]
    return FiniteOperator(box, box.points(), h, adjacency, g, sample, interaction)


def box_family(
    centers: np.ndarray,
    radius: int,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> np.ndarray:
    """Stacked Hamiltonians of the two-particle boxes of one radius at the
    flat ``centers`` (shape ``(ncand, 2d)``): one template hop matrix, as
    hopping depends only on the box shape, plus each box's diagonal
    ``U(x) + g (V(x1) + V(x2))``.  The hop matrix is built once per
    ``(d, radius, adjacency)`` (``_hop_template``).
    ``assemble_two_particle`` is the one-box case.  The sample domain is
    not checked (see ``check_projections``).
    """
    centers = np.asarray(centers, dtype=np.int64)
    ncand, d = len(centers), centers.shape[1] // 2
    tpl = Box2.of_origin(d, radius).points()
    n = len(tpl)
    pts = (centers[:, None, :] + tpl[None, :, :]).reshape(ncand * n, 2 * d)
    x1, x2 = pts[:, :d], pts[:, d:]
    v = sample.values_at_unchecked(x1) + sample.values_at_unchecked(x2)
    u = interaction.at_separation(np.abs(x1 - x2).max(axis=1))
    h = np.broadcast_to(_hop_template(d, radius, normalize_adjacency(adjacency)),
                        (ncand, n, n)).copy()
    idx = np.arange(n)
    h[:, idx, idx] = (u + g * v).reshape(ncand, n)
    return h


@functools.lru_cache(maxsize=8)
def _hop_template(d: int, radius: int, adjacency: str) -> np.ndarray:
    """Read-only hop matrix of the radius-``radius`` two-particle box in
    ``2d`` coordinates, shared by every ``box_family`` call of that shape."""
    hop = adjacency_matrix(Box2.of_origin(d, radius).points(), adjacency)
    hop.flags.writeable = False
    return hop


def exchange_orbits(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the flat ``centers`` (shape ``(ncand, 2d)``) under particle
    exchange (x1, x2) -> (x2, x1).  Returns ``reps``, the first row of each
    orbit {u, sigma u} present in the family, ascending, and ``orbit``, the
    position in ``reps`` of each row's representative.

    The box at sigma u is the box at u conjugated by the site exchange,
    which fixes the center and maps the boundary onto itself (diagonal and
    hops are exchange symmetric), so ``box_family`` at a representative
    serves its whole orbit.  With no exchange image in the family ``orbit``
    is the identity.
    """
    centers = np.asarray(centers, dtype=np.int64)
    row_of = {row.tobytes(): i for i, row in enumerate(centers)}
    swapped = np.roll(centers, centers.shape[1] // 2, axis=1)
    first = [min(i, row_of.get(row.tobytes(), i)) for i, row in enumerate(swapped)]
    reps, orbit = np.unique(np.array(first, dtype=np.int64), return_inverse=True)
    return reps, orbit


def family_spectra(
    centers: np.ndarray,
    radius: int,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> Iterator[np.ndarray]:
    """Ascending spectra of the ``box_family`` at ``centers``, in order: one
    ``(nchunk, n)`` array per stacked eigensolve over a chunk of at most
    ``FAMILY_BYTES`` of matrices (at least one box)."""
    n = (2 * radius + 1) ** np.shape(centers)[1]
    step = max(1, FAMILY_BYTES // (8 * n * n))
    for start in range(0, len(centers), step):
        yield np.linalg.eigvalsh(box_family(
            centers[start:start + step], radius, sample, interaction, g, adjacency))


def assemble_single_particle(
    box: Box1,
    sample: DisorderSample,
    g: float,
    particle: int = 1,
    adjacency: str = "sup",
) -> FiniteOperator:
    """Single-particle Hamiltonian: diagonal g*V(x), unit hopping at lattice
    distance one inside the box."""
    adjacency = normalize_adjacency(adjacency)
    pts = box.points()
    _check_domain(sample, pts, "single-particle box")
    h = adjacency_matrix(pts, adjacency)
    vals = sample.values_at_unchecked(pts)
    np.fill_diagonal(h, g * vals)
    return FiniteOperator(box, pts, h, adjacency, g, sample, particle=particle)


def eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's one eigensolve with eigenvectors, on a stack of
    symmetric matrices ``h`` (``(nbox, n, n)``): ascending eigenvalues
    ``(nbox, n)``, eigenvector columns ``(nbox, n, n)`` and residual norms
    ``|H q_s - lambda_s q_s|`` ``(nbox, n)``.  Raises ``NumericError`` when
    an entry is not finite, a residual exceeds ``SPECTRAL_RTOL`` times its
    box's spectral radius, or eigenvectors are not orthonormal within
    ``SPECTRAL_RTOL``."""
    if not np.all(np.isfinite(h)):
        raise NumericError("operator matrix has non-finite entries")
    ev, q = np.linalg.eigh(h)
    res = np.linalg.norm(h @ q - q * ev[:, None, :], axis=1)
    radius = np.abs(ev).max(axis=1, initial=0.0)
    if np.any(res.max(axis=1, initial=0.0) > SPECTRAL_RTOL * np.maximum(radius, 1e-300)):
        raise NumericError("eigensolver residuals exceed tolerance")
    gram = np.swapaxes(q, 1, 2) @ q
    gram -= np.eye(h.shape[-1])  # in place: a fresh stack-sized temporary costs more
    if np.abs(gram, out=gram).max(initial=0.0) > SPECTRAL_RTOL:
        raise NumericError("eigenvectors not orthonormal within tolerance")
    return ev, q, res


def pole_residues(h: np.ndarray, center_index: int,
                  boundary_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Poles and residues of the centre-to-boundary Green's functions of a
    stack of same-layout boxes ``h`` (``(nbox, n, n)``), from one
    ``eigh_stack``:

        G(E; c, y_b) = sum_s residues[:, b, s] / (poles[:, s] - E)

    with ``poles`` the ascending eigenvalues ``(nbox, n)`` and ``residues``
    the products ``psi_s(c) psi_s(y_b)`` over the boundary points
    ``(nbox, nb, n)``."""
    ev, q, _ = eigh_stack(h)
    return ev, q[:, boundary_indices, :] * q[:, center_index, None, :]


def diagonalize(op: FiniteOperator) -> SpectralData:
    """Dense symmetric eigendecomposition of one operator: the one-box
    ``eigh_stack``."""
    ev, q, res = eigh_stack(op.matrix[None])
    return SpectralData(ev[0], q[0], res[0], op)


def single_particle_factors(
    box: Box2,
    sample: DisorderSample,
    g: float,
    adjacency: str = "l1",
) -> tuple[FiniteOperator, FiniteOperator]:
    """The two single-particle operators on the projections of a box."""
    p1, p2, _ = projections(box)
    op1 = assemble_single_particle(p1, sample, g, particle=1, adjacency=adjacency)
    op2 = assemble_single_particle(p2, sample, g, particle=2, adjacency=adjacency)
    return op1, op2
