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

The operator commutes with the particle exchange sigma (x1, x2) -> (x2, x1),
so a box centred on the diagonal x1 = x2 splits exactly into a symmetric
and an antisymmetric block (``Sectors``).  A ``BoxStack`` marks each such
box, and ``resolvent`` decides it in its blocks: both blocks for a window
test or a spectrum, the symmetric block alone for a Green's function from
the centre, whose source e_c is symmetric.  The dense one-box paths
(``FiniteOperator``, ``eigh_stack``, ``BoxStack.matrices``) build the full
matrix and serve as the test oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

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

#: largest stack of box matrices one ``BoxStack.pieces`` piece holds; a
#: piece and the few copies a window test or a solve makes of it stay
#: within a few megabytes per worker
STACK_BYTES = 1 << 19


@dataclass
class FiniteOperator:
    """Assembled Hermitian (real symmetric) finite-volume Hamiltonian."""

    box: Box2 | Box1
    points: np.ndarray  # (N, D) configuration/site array, lexicographic
    matrix: np.ndarray  # (N, N) float64 symmetric
    adjacency: str
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
        """Ascending eigenvalues; cached (cheaper than full eigenpairs).
        Raises ``NumericError`` when an entry is not finite."""
        if self._eigenvalues is None:
            if not np.isfinite(self.matrix).all():
                raise NumericError("operator matrix has non-finite entries")
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
    p1, p2 = projections(box)
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
    return FiniteOperator(box, box.points(), h, adjacency)


def box_family(
    centers: np.ndarray,
    radius: int,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> np.ndarray:
    """Stacked Hamiltonians of the two-particle boxes of one radius at the
    flat ``centers`` (shape ``(ncand, 2d)``): the one-sample
    ``family_stack``, built.  ``assemble_two_particle`` is the one-box
    case.  The sample domain is not checked (see ``check_projections``).
    """
    return family_stack(centers, radius, [sample], interaction, g, adjacency).matrices()


@dataclass(frozen=True)
class Sectors:
    """The exchange-sector blocks of the diagonal-centred two-particle box
    of one shape.  sigma maps a diagonal-centred box onto itself, so its
    sites are fixed sites (x1 = x2) and pairs {x, sigma x}.  Block 0, the
    symmetric one, has one row per fixed site (basis e_x) and one per pair
    ((e_x + e_sigma x)/sqrt 2); block 1, the antisymmetric one, has one
    row per pair ((e_x - e_sigma x)/sqrt 2).  A pair's row is at its
    representative, the lower index of the two.

    ``hops[b]`` is Q_b^T A Q_b for the box's hop matrix A: entries
    h_xy +- h_x,sigma y, times sqrt 2 between a fixed site and a pair, so
    its diagonal holds +- the hop between a representative and its image
    (which exists under ``sup`` and not under ``l1``).  Block b of a box
    is ``hops[b]`` with the box's diagonal at ``sites[b]`` added to its
    diagonal.  Every entry is within eps/2 relative of Q_b^T H Q_b.  A
    vector that lives in the symmetric block, with rows z, is z[row] *
    weight on the sites."""

    sites: tuple[np.ndarray, np.ndarray]  # site of each row of blocks 0 and 1
    hops: tuple[np.ndarray, np.ndarray]  # read-only
    image: np.ndarray  # (n,) site of sigma x
    row: np.ndarray  # (n,) symmetric row of each site
    weight: np.ndarray  # (n,) 1 on fixed sites, 1/sqrt 2 on pairs


@dataclass(frozen=True)
class BoxStack:
    """A stack of same-shape two-particle boxes kept as their one hop
    matrix and one diagonal per box, so that nothing needs every matrix
    at once: the Gershgorin discs of a box read its diagonal and the hop
    matrix's row sums, and ``pieces`` builds the matrices of chosen boxes
    in stacks of at most ``STACK_BYTES``.  ``matrices()[i]`` is box i's
    matrix, the ``box_family`` of its center and sample.  The boxes
    centred on the diagonal are marked, and ``sector_pieces`` builds
    their exchange-sector blocks (``sectors``, None when no box is
    marked)."""

    hop: np.ndarray  # (n, n), read-only, zero diagonal
    diagonal: np.ndarray  # (nbox, n)
    on_diagonal: np.ndarray  # (nbox,) bool
    sectors: Optional[Sectors]

    def __len__(self) -> int:
        return len(self.diagonal)

    @property
    def shape(self) -> tuple[int, int, int]:
        n = self.hop.shape[0]
        return len(self.diagonal), n, n

    def take(self, rows) -> "BoxStack":
        return BoxStack(self.hop, self.diagonal[rows], self.on_diagonal[rows], self.sectors)

    def matrices(self) -> np.ndarray:
        """Every box's matrix, ``(nbox, n, n)``."""
        nbox, n, _ = self.shape
        h = np.broadcast_to(self.hop, (nbox, n, n)).copy()
        idx = np.arange(n)
        h[:, idx, idx] = self.diagonal
        return h

    def pieces(self, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The boxes at ``rows``, in order, as ``(rows of the piece, its
        matrices)`` with at most ``STACK_BYTES`` of matrices per piece (at
        least one box each)."""
        n = self.hop.shape[0]
        step = max(1, STACK_BYTES // (8 * n * n))
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            yield part, self.take(part).matrices()

    def sector_pieces(self, rows: np.ndarray,
                      block: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Exchange-sector block ``block`` (0 symmetric, 1 antisymmetric) of
        the marked boxes at ``rows``, in order, as ``(rows of the piece,
        its block matrices)`` with at most ``STACK_BYTES`` of matrices per
        piece (at least one box each)."""
        sites, hop = self.sectors.sites[block], self.sectors.hops[block]
        m = len(sites)
        idx = np.arange(m)
        step = max(1, STACK_BYTES // (8 * m * m))
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            h = np.broadcast_to(hop, (len(part), m, m)).copy()
            h[:, idx, idx] += self.diagonal[part][:, sites]
            yield part, h

    def frobenius(self) -> np.ndarray:
        """``||H_i||_F`` of every box, ``(nbox,)``."""
        return np.sqrt(np.square(self.hop).sum() + np.square(self.diagonal).sum(axis=1))

    def row_sums(self) -> np.ndarray:
        """``sum_{y != x} |h_xy|`` of every row x, ``(n,)``: the same for
        every box, as only the diagonal differs."""
        off = np.abs(self.hop)
        np.fill_diagonal(off, 0.0)
        return off.sum(axis=-1)


def concat_stacks(stacks: Sequence[BoxStack]) -> BoxStack:
    """One ``BoxStack`` of the boxes of ``stacks`` (of one shape), in order."""
    sectors = next((s.sectors for s in stacks if s.sectors is not None), None)
    return BoxStack(stacks[0].hop, np.concatenate([s.diagonal for s in stacks]),
                    np.concatenate([s.on_diagonal for s in stacks]), sectors)


def _site_table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sites of the bounding box of the one-particle points ``x``
    (``(npts, d)``), in lexicographic order, and the position of each
    point among them."""
    low, high = x.min(axis=0), x.max(axis=0)
    extent = [int(e) for e in high - low + 1]
    strides = np.array([math.prod(extent[i + 1:]) for i in range(len(extent))],
                       dtype=np.int64)
    axes = [np.arange(lo, lo + e, dtype=np.int64) for lo, e in zip(low.tolist(), extent)]
    sites = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return sites, (x - low) @ strides


def family_stack(
    centers: np.ndarray,
    radius: int,
    samples: Sequence[DisorderSample],
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> BoxStack:
    """The two-particle boxes of one radius at the flat ``centers`` (shape
    ``(ncand, 2d)``) under every sample, sample-major (row
    ``s * ncand + i`` is center i under ``samples[s]``): one template hop
    matrix, as hopping depends only on the box shape, plus each box's
    diagonal ``U(x) + g (V(x1) + V(x2))``.  The hop matrix is built once
    per ``(d, radius, adjacency)`` (``_hop_template``), and the geometry
    (configurations, interaction, site positions) once per call; each
    sample's potential is drawn once per site of the bounding box of
    each particle's coordinates.  The boxes centred on the diagonal are
    marked, and the shape's ``Sectors`` are built once like its hop
    matrix (``_sector_template``).  The sample domains are not checked
    (see ``check_projections``).
    """
    centers = np.asarray(centers, dtype=np.int64)
    ncand, d = len(centers), centers.shape[1] // 2
    tpl = Box2.of_origin(d, radius).points()
    n = len(tpl)
    adjacency = normalize_adjacency(adjacency)
    hop = _hop_template(d, radius, adjacency)
    marked = (centers[:, :d] == centers[:, d:]).all(axis=1)
    sectors = _sector_template(d, radius, adjacency) if marked.any() else None
    on_diagonal = np.tile(marked, len(samples))
    if ncand == 0:
        return BoxStack(hop, np.empty((0, n)), on_diagonal, sectors)
    pts = (centers[:, None, :] + tpl[None, :, :]).reshape(ncand * n, 2 * d)
    x1, x2 = pts[:, :d], pts[:, d:]
    u = interaction.at_separation(np.abs(x1 - x2).max(axis=1))
    (sites1, at1), (sites2, at2) = _site_table(x1), _site_table(x2)
    diagonal = np.empty((len(samples), ncand * n))
    for row, sample in zip(diagonal, samples):
        v = (sample.values_at_unchecked(sites1)[at1]
             + sample.values_at_unchecked(sites2)[at2])
        row[:] = u + g * v
    return BoxStack(hop, diagonal.reshape(len(samples) * ncand, n), on_diagonal, sectors)


#: the shape templates of ``_hop_template`` and ``_sector_template``, at
#: most 16, oldest first; added under the lock
_templates: dict[tuple[str, int, int, str], object] = {}
_template_lock = threading.Lock()


def _shared(key: tuple[str, int, int, str], build):
    """The template at ``key``, built by ``build()`` on a miss.  A miss
    takes the lock and looks again, so workers that miss together build
    one template; a hit takes no lock."""
    value = _templates.get(key)
    if value is None:
        with _template_lock:
            value = _templates.get(key)
            if value is None:
                value = build()
                if len(_templates) >= 16:
                    del _templates[next(iter(_templates))]
                _templates[key] = value
    return value


def _hop_template(d: int, radius: int, adjacency: str) -> np.ndarray:
    """Read-only hop matrix of the radius-``radius`` two-particle box in
    ``2d`` coordinates, shared by every ``box_family`` call of that shape."""
    def build():
        hop = adjacency_matrix(Box2.of_origin(d, radius).points(), adjacency)
        hop.flags.writeable = False
        return hop
    return _shared(("hop", d, radius, adjacency), build)


def _sector_template(d: int, radius: int, adjacency: str) -> Sectors:
    """The ``Sectors`` of the radius-``radius`` diagonal-centred box, from
    its hop matrix; shared like ``_hop_template``."""
    hop = _hop_template(d, radius, adjacency)  # outside the lock, which is not reentrant

    def build():
        box = Box2.of_origin(d, radius)
        pts = box.points()
        n = len(pts)
        image = box.index_of(np.concatenate([pts[:, d:], pts[:, :d]], axis=1))
        site = np.arange(n)
        fixed = image == site
        sym, anti = np.flatnonzero(image >= site), np.flatnonzero(image > site)
        half = math.sqrt(0.5)
        # h_xy + h_x,sigma y is twice h_xy where x or y is fixed: halved
        # between fixed sites, times 1/sqrt 2 between a fixed site and a pair
        f = fixed[sym]
        scale = np.where(f[:, None] & f[None, :], 0.5,
                         np.where(f[:, None] | f[None, :], half, 1.0))
        sym_hop = (hop[np.ix_(sym, sym)] + hop[np.ix_(sym, image[sym])]) * scale
        anti_hop = hop[np.ix_(anti, anti)] - hop[np.ix_(anti, image[anti])]
        for a in (sym_hop, anti_hop):
            a.flags.writeable = False
        row = np.empty(n, dtype=np.int64)
        row[sym] = np.arange(len(sym))
        row[image[sym]] = row[sym]
        return Sectors((sym, anti), (sym_hop, anti_hop), image, row,
                       np.where(fixed, 1.0, half))
    return _shared(("sectors", d, radius, adjacency), build)


def exchange_orbits(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the flat ``centers`` (shape ``(ncand, 2d)``) under particle
    exchange (x1, x2) -> (x2, x1).  Returns ``reps``, the first row of each
    orbit {u, sigma u} present in the family, ascending, and ``orbit``, the
    position in ``reps`` of each row's representative.

    The box at sigma u is the box at u conjugated by the site exchange,
    which fixes the center and maps the boundary onto itself (diagonal and
    hops are exchange symmetric), so ``box_family`` at a representative
    serves its whole orbit.  With no exchange image in the family ``orbit``
    is the identity.  A row's image is the last row equal to its exchange,
    so a family with repeated rows (a sampled one) may keep more than one
    representative of an orbit.
    """
    centers = np.ascontiguousarray(centers, dtype=np.int64)
    ncand, width = centers.shape
    half = width // 2
    swapped = np.concatenate([centers[:, half:], centers[:, :half]], axis=1)
    row = np.dtype((np.void, 8 * width))
    keys, images = centers.view(row).ravel(), swapped.view(row).ravel()
    order = np.argsort(keys, kind="stable")
    # the last row equal to each swapped row (stable order keeps it last)
    last = order[np.searchsorted(keys[order], images, side="right") - 1]
    i = np.arange(ncand)
    first = np.where(keys[last] == images, np.minimum(i, last), i)
    is_rep = first == i
    return np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[first]


def family_spectra(
    centers: np.ndarray,
    radius: int,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> Iterator[np.ndarray]:
    """Ascending spectra of the ``box_family`` at ``centers``, in order: one
    ``(npiece, n)`` array per stacked eigensolve over a ``BoxStack.pieces``
    piece."""
    stack = family_stack(centers, radius, [sample], interaction, g, adjacency)
    for _, h in stack.pieces(np.arange(len(stack))):
        yield np.linalg.eigvalsh(h)


def assemble_single_particle(
    box: Box1,
    sample: DisorderSample,
    g: float,
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
    return FiniteOperator(box, pts, h, adjacency)


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
    p1, p2 = projections(box)
    return (assemble_single_particle(p1, sample, g, adjacency),
            assemble_single_particle(p2, sample, g, adjacency))
