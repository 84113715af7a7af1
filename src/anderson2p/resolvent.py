"""Green's functions of finite-volume Hamiltonians.

Every Green's function solve in the package is one call of ``_solve``: a
stacked pivoted-LU solve of ``(H_i - E_i) x_i = b_i`` that skips the boxes
whose spectrum comes within the solver guard (``within_guard``) of their
energy and checks every residual against the largest column norm of
``H_i - E_i``, read from the matrix.  ``green_column`` (one column at one
source), ``boundary_green_maxima`` (centre-to-boundary maxima of a stack of
same-layout boxes, at one energy or one per box) and ``boundary_recovery``
(one box at many energies) are its three callers.  ``green_spectral``
evaluates the same quantity on non-interactive boxes through the
eigendecomposition of the two single-particle factors.

A box need not be diagonalized for the guard: ``window_clear`` certifies,
box by box, that no eigenvalue lies within a width above the guard, and
``spectra_unless_clear`` diagonalizes only the boxes it leaves.  Its pair
``(clear, spectra)``, one verdict per box and the spectra of the boxes not
certified, is how every caller tells ``_solve`` which boxes to guard: a
certified box is solved with no spectrum.  ``window_clear`` certifies a
box in two stages: its Gershgorin discs, read in O(n^2) (from the
diagonals alone for an ``operators.BoxStack``), and, for the boxes whose
discs come near the window, one matrix product and one Cholesky
factorization of the stack they form, in pieces of at most
``operators.STACK_BYTES``.  The complete non-resonance test asks the same
question at the resonance width, of the sub-box families and of the
inductive step's parent; a resonance width is above the guard width, so a
parent certified non-resonant is solved without a spectrum too.
``nt-to-ns`` certifies its box from the tensor sums of its factors
instead, as a ``clear`` of its own.

A box need not be solved either when its question is only whether the
boundary Green's maximum stays below a threshold: ``dominance_certified``
bounds |G(E; c, .)| of a strictly dominant ``operators.BoxStack`` box by
monotone Jacobi steps on its comparison matrix, from the data of the disc
stage and |hop|, with no matrix built and no LAPACK.  Its one caller is
the sub-box counter ``msa.singular_subbox_counts``, which window-tests and
solves only the boxes it leaves; a box that reports its maximum, or a
resonance question, gets nothing from a bound.

A box of an ``operators.BoxStack`` centred on the diagonal is decided in
its two exchange sectors (``operators.Sectors``, built per piece by
``BoxStack.sector_pieces``): the inductive parent, and the diagonal
members of the counter and CNR sub-box families.  The window test and
the spectrum are questions about the whole spectrum, so they read both
blocks: a box is certified only when both blocks are, and its spectrum
is the two block spectra merged in ascending order, so the pair
``(clear, spectra)`` and the solver guard mean what they mean for the
whole box.  The antisymmetric block is factored for nothing else: the
Green's function from the centre solves ``(H - E) x = e_c`` with e_c
symmetric, so x lies in the symmetric block, and ``_solve`` factors that
block alone.  The disc stage reads the whole box, as its discs bound the
union of both blocks' spectra.

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
from itertools import chain
from typing import Iterator

import numpy as np

from .errors import NumericError, PreconditionError, ResonantEnergyError
from .geometry import Box2, Point2, exterior_boundary
from .kernels import pairwise_dist
from .operators import SPECTRAL_RTOL, BoxStack, FiniteOperator, SpectralData

#: relative spectral-gap guard below which an energy counts as resonant for
#: solving purposes (callers should classify the box resonant instead)
RESONANCE_GUARD = 1e-12


def within_guard(gap, E, edge):
    """The solver guard: an energy ``E`` at distance ``gap`` from a spectrum
    of spectral norm ``edge`` (``max(|lambda_min|, |lambda_max|)``) is too
    close to solve at when ``gap <= RESONANCE_GUARD * max(1, |E|, edge)``.
    Elementwise on arrays."""
    return gap <= RESONANCE_GUARD * np.maximum(np.maximum(1.0, np.abs(E)), edge)


def _pieces(h: np.ndarray | BoxStack,
            rows: np.ndarray) -> Iterator[tuple[np.ndarray | slice, np.ndarray]]:
    """The boxes at ``rows`` of the stack ``h`` as ``(positions, matrices)``
    pieces: a ``BoxStack``'s ``pieces``, or one piece of an array stack,
    which is ``h`` itself (at ``slice(None)``) when ``rows`` is every
    box and a gathered copy otherwise.  No rows, no piece."""
    if isinstance(h, BoxStack):
        yield from h.pieces(rows)
    elif len(rows) == len(h):
        yield slice(None), h
    elif len(rows):
        yield rows, h[rows]


def _split(h: np.ndarray | BoxStack, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` as the boxes decided on their whole matrix (``_pieces``)
    and the diagonal-centred boxes of a ``BoxStack``, decided in their
    exchange sectors (``BoxStack.sector_pieces``)."""
    if isinstance(h, BoxStack) and h.sectors is not None:
        marked = h.on_diagonal[rows]
        return rows[~marked], rows[marked]
    return rows, rows[:0]


def window_clear(h: np.ndarray | BoxStack, E: float | np.ndarray,
                 w: float | np.ndarray) -> np.ndarray:
    """Certify, box by box, that no box of the stack ``h`` (symmetric,
    ``(nbox, n, n)``, or a ``BoxStack``) has an eigenvalue within ``w`` of
    ``E`` (one energy and width for all boxes or one per box), without its
    spectrum.  Returns one verdict per box, ``(nbox,)``; a box's verdict
    does not depend on the other boxes of the stack.

    True means the box is certified by one of two stages; either way
    every eigenvalue lies farther than w + eta from E, where
    eta = n eps (||H - E||_F + |E|) covers the error of ``eigvalsh``
    itself, so every gap it would report is at least ``w``.

    * Discs, O(n^2) per box.  Every eigenvalue lies in a Gershgorin disc
      [h_xx - r_x, h_xx + r_x], r_x = sum_{y != x} |h_xy|.  A box is
      certified when every row x has

          |h_xx - E| - r_x - (w + eta') > 2 (n + 2) eps (|h_xx - E| + r_x)

      with eta' = n eps (sqrt(n) G + |E|) >= eta, where
      G = max_x (|h_xx - E| + r_x) bounds ||H - E||_2 and sqrt(n) G
      bounds ||H - E||_F.  The right side covers the rounding of
      h_xx - E (eps / 2 relative) and of r_x (a sum of n - 1 terms,
      (n - 1) eps / 2 relative), of the test's own subtractions and of
      eta'.  A ``BoxStack`` is tested from its diagonals and its hop
      matrix's row sums, with no matrix built.
    * Cholesky, O(n^3) per box, for the boxes the discs leave, gathered
      from the whole stack.  An eigenvalue of H lies in [E - w, E + w]
      exactly when (H - E)^2 - w^2 is not positive definite.  A box is
      certified when the factorization of
      (H - E)^2 - ((w + eta)^2 + delta) completes with a finite factor,
      where delta = 2 (n + 2) eps ||H - E||_F^2 bounds the rounding of the
      product and of the factorization (after S. M. Rump, "Verification
      of positive definiteness", BIT 46 (2006) 433).  The boxes are
      factored as one stack per piece (``_pieces``); a stack that does not
      factor is split in halves until each box has its own verdict.  A
      diagonal-centred box of a ``BoxStack`` is factored in its exchange
      sectors instead, its symmetric block and then, if that is certified,
      its antisymmetric block, each at the width w + eta' + eps ||H||_F.
      The blocks hold the box's whole spectrum; eta' covers ``eigvalsh``
      on the whole box, and eps ||H||_F the rounding of the blocks against
      the exact Q^T H Q (the sqrt 2 couplings and the exchange hop on the
      diagonal, each within eps/2 relative), so what the blocks certify
      holds for the box.

    Underflow terms, below 1e-300, are left out of both bounds.  False
    says nothing: a box may merely come near the window, and the caller
    decides from the spectrum.  An array ``h`` whose every box reaches the
    Cholesky stage is shifted in place for the product and its diagonal
    is written back, so it is unchanged on return.  Raises
    ``NumericError`` when an entry is not finite, as numpy's stacked
    Cholesky does not fail on one.
    """
    nbox, n = len(h), h.shape[-1]
    E = np.broadcast_to(np.asarray(E, dtype=np.float64), (nbox,))
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), (nbox,))
    idx = np.arange(n)
    if isinstance(h, BoxStack):
        diagonal, radius = h.diagonal, h.row_sums()
    else:
        diagonal = h[..., idx, idx]
        off = np.abs(h)
        off[..., idx, idx] = 0.0
        radius = off.sum(axis=-1)
        del off  # a stack's worth of memory, not needed by the Cholesky stage
    if not (np.isfinite(diagonal).all() and np.isfinite(radius).all()):
        raise NumericError("operator matrix has non-finite entries")
    clear, eta = _discs_clear(np.abs(diagonal - E[:, None]), radius, E, w)
    whole, marked = _split(h, np.flatnonzero(~clear))
    for rows, sub in _pieces(h, whole):
        clear[rows] = _cholesky_clear(sub, E[rows], w[rows])
    if len(marked):
        wide = w + eta + np.finfo(np.float64).eps * h.frobenius()
        for block in (0, 1):
            for rows, sub in h.sector_pieces(marked[clear[marked]] if block else marked, block):
                clear[rows] = _cholesky_clear(sub, E[rows], wide[rows])
    return clear


def _discs_clear(shift: np.ndarray, radius: np.ndarray, E: np.ndarray,
                 w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``window_clear``'s disc stage from ``shift = |h_xx - E|``
    ``(nbox, n)`` and the row sums ``radius`` (``(n,)`` or ``(nbox, n)``):
    one verdict per box, False where an entry is not finite, and each
    box's eta'."""
    n = shift.shape[-1]
    eps = np.finfo(np.float64).eps
    size = shift + radius  # not finite where E is not
    eta = n * eps * (np.sqrt(n) * size.max(axis=-1) + np.abs(E))
    clear = (shift - radius - (w + eta)[:, None] > 2 * (n + 2) * eps * size).all(axis=-1)
    return clear, eta


def dominance_certified(stack: BoxStack, E: np.ndarray, center_index: int,
                        boundary_indices: np.ndarray, threshold: float) -> np.ndarray:
    """Certify, box by box, that ``max_y |G(E_i; c, y)|`` over
    ``boundary_indices`` is at most ``threshold`` for the boxes of
    ``stack`` (one energy per box) whose discs clear their solver guard,
    with no matrix built and no LAPACK.  Returns one verdict per box; a
    box's verdict does not depend on the other boxes of the stack.

    Write A = H - E = D + T with D diagonal, and let M = |D| - |T|, the
    comparison matrix.  A box whose discs clear ``guard_width``
    (``window_clear``'s disc stage) is strictly diagonally dominant,
    delta = min_x (|h_xx - E| - r_x) > 0, so M^{-1} >= 0 exists and
    |A^{-1}| <= M^{-1} entrywise (Ostrowski).  Whatever vector u >= 0
    bounds g = M^{-1} e_c from above, so does its Jacobi update
    (e_c + |T| u) / |h_xx - E|, as the update is monotone and g is its
    fixed point; the iteration starts from Varah's bound
    ||M^{-1}||_inf <= 1/delta (Varah, Linear Algebra Appl. 11 (1975) 3)
    and keeps ``u <- min(u, update)``: the path expansion of von Dreifus
    and Klein, CMP 124 (1989) 285.  It runs 4 L + 2 steps, L the hop
    distance from the centre to the boundary, and stops once every box is
    decided.

    Rounding.  The start is 1/delta' with delta' = |h_xx - E| - r_x -
    2 (n + 2) eps (|h_xx - E| + r_x) <= delta, the disc stage's margin,
    and the start and each update are scaled by 1 + 2 (n + 2) eps, above
    the relative rounding of a sum of n nonnegative terms, of h_xx - E and
    of the division; so every u bounds |G(E; c, .)| of the exact inverse.
    A box is certified when its boundary bound plus 2 rho ||u||_inf is at
    most ``threshold``, where rho = n eps ||A||_inf / delta' <= 1/2: taking
    the solve's backward error as n eps ||A||_inf, as ``window_clear``'s
    eta takes that of ``eigvalsh``, ||A^{-1}||_inf <= 1/delta bounds its
    forward error by 2 rho ||x||_inf, so ``boundary_green_maxima`` would
    report the box below ``threshold`` too.  Its discs clear the guard, so
    it would solve it.  False says nothing.
    """
    nbox, n = stack.shape[:2]
    E = np.broadcast_to(np.asarray(E, dtype=np.float64), (nbox,))
    certified = np.zeros(nbox, dtype=bool)
    eps = np.finfo(np.float64).eps
    grow = 1 + 2 * (n + 2) * eps
    radius = stack.row_sums()
    shift = np.abs(stack.diagonal - E[:, None])
    live = np.flatnonzero(_discs_clear(shift, radius, E, guard_width(stack, E))[0])
    shift, size = shift[live], shift[live] + radius
    delta = (shift - radius - 2 * (n + 2) * eps * size).min(axis=1)
    rho = n * eps * size.max(axis=1) / delta
    keep = rho <= 0.5
    live, shift, delta, rho = live[keep], shift[keep], delta[keep], rho[keep]
    hop = np.abs(stack.hop)
    reach = np.zeros(n, dtype=bool)
    reach[center_index] = True
    for hops in range(n):  # the hop distance from the centre to the boundary
        if reach[boundary_indices].any():
            break
        reach |= hop[reach].any(axis=0)
    u = np.repeat((grow / delta)[:, None], n, axis=1)
    for _ in range(4 * hops + 2):
        step = u @ hop
        step[:, center_index] += 1.0
        np.minimum(u, step * (grow / shift), out=u)
        done = u[:, boundary_indices].max(axis=1) + 2 * rho * u.max(axis=1) <= threshold
        certified[live[done]] = True
        live, u, shift, rho = live[~done], u[~done], shift[~done], rho[~done]
        if not len(live):
            break
    return certified


def _cholesky_clear(h: np.ndarray, E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``window_clear``'s Cholesky stage on the array stack ``h``, one
    verdict per box; ``h`` is shifted in place and written back."""
    n = h.shape[-1]
    idx = np.arange(n)
    eps = np.finfo(np.float64).eps
    diagonal = h[..., idx, idx]
    h[..., idx, idx] -= E[:, None]
    try:
        sq = h @ h
    finally:
        h[..., idx, idx] = diagonal
    fro2 = np.trace(sq, axis1=-2, axis2=-1)  # ||H - E||_F^2, as H - E is symmetric
    eta = n * eps * (np.sqrt(fro2) + np.abs(E))
    sq[..., idx, idx] -= ((w + eta) ** 2 + 2 * (n + 2) * eps * fro2)[:, None]
    return _factors(sq)


def _factors(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack ``a`` has a finite Cholesky
    factor.  numpy's stacked ``cholesky`` raises when any matrix is not
    positive definite, and factors each matrix on its own, so a stack that
    raises is factored again in halves."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros(1, dtype=bool)
        half = len(a) // 2
        return np.concatenate([_factors(a[:half]), _factors(a[half:])])
    return np.isfinite(factor).all(axis=(-2, -1))


def spectra_unless_clear(h: np.ndarray | BoxStack, E: float | np.ndarray,
                         w: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``window_clear``'s verdicts on the stack ``h`` (``(nbox, n, n)`` or
    a ``BoxStack``) and the ascending spectra ``(nleft, n)`` of the boxes
    it does not certify, in order, from one stacked ``eigvalsh`` per
    piece.  Every gap ``eigvalsh`` would report for a certified box is at
    least its ``w``.  The spectrum of a diagonal-centred box of a
    ``BoxStack`` is the spectra of its two exchange-sector blocks, merged
    in ascending order."""
    clear = window_clear(h, E, w)
    left = np.flatnonzero(~clear)
    at = np.empty(len(h), dtype=np.int64)
    at[left] = np.arange(len(left))
    spectra = np.empty((len(left), h.shape[-1]))
    whole, marked = _split(h, left)
    for rows, sub in _pieces(h, whole):
        spectra[at[rows]] = np.linalg.eigvalsh(sub)
    if len(marked):
        m = len(h.sectors.sites[0])
        for block, cols in ((0, slice(None, m)), (1, slice(m, None))):
            for rows, sub in h.sector_pieces(marked, block):
                spectra[at[rows], cols] = np.linalg.eigvalsh(sub)
        spectra[at[marked]] = np.sort(spectra[at[marked]], axis=1)
    return clear, spectra


def guard_width(h: np.ndarray | BoxStack, E: float | np.ndarray) -> np.ndarray:
    """A window width above the solver guard of each box of the stack
    ``h`` at ``E``: ``2 * RESONANCE_GUARD * max(1, |E|, |H_i|_F)``, one per
    box.  The Frobenius norm bounds the spectral edge that
    ``within_guard`` reads, so a box whose ``eigvalsh`` gap is at least
    its width is outside its guard."""
    norm = h.frobenius() if isinstance(h, BoxStack) else np.linalg.norm(h, axis=(1, 2))
    return 2 * RESONANCE_GUARD * np.maximum(np.maximum(1.0, np.abs(E)), norm)


def spectral_gap(op: FiniteOperator, E: float) -> float:
    ev = op.eigenvalues()
    return float(np.abs(ev - E).min())


def _solve(
    h: np.ndarray | BoxStack,
    clear_spectra: tuple[np.ndarray, np.ndarray],
    E: float | np.ndarray,
    rhs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``(H_i - E_i) x_i = b_i`` for a stack of symmetric operators
    ``h`` (``(nbox, n, n)``, or a ``BoxStack`` solved piece by piece) at
    energies ``E`` (one for all boxes or one per box) with right-hand
    sides ``rhs`` (``(nbox, n, 1)``).

    ``clear_spectra`` is ``spectra_unless_clear``'s pair: ``clear``
    ``(nbox,)`` says which boxes are certified clear of the guard, and
    ``spectra`` ``(nleft, n)`` holds the ascending spectra of the others,
    in order.  A certified box is solved; another is skipped when its
    energy is ``within_guard`` of its spectrum.  Returns the positions of
    the solved boxes, their solutions ``(nsolved, n, 1)`` and residual
    norms ``|(H - E) x - b|``.  Raises ``NumericError`` when a residual
    exceeds ``SPECTRAL_RTOL * max(1, |H - E| |x|)``, where ``|H - E|`` is
    the largest column norm of ``H - E``: it is never larger than the
    spectral norm, so the check is no looser than one against the
    spectral edge, and it needs no spectrum.

    When every box of an array stack is solved, ``h`` and ``rhs`` are read
    in place; the one stack copy per piece is ``H - E``, formed by
    shifting the diagonal of a copy.  Each box is solved on its own, so
    its solution does not depend on the other boxes of the stack.

    A diagonal-centred box of a ``BoxStack`` is solved in its symmetric
    block alone, which needs an exchange-symmetric right-hand side (else
    ``PreconditionError``): the antisymmetric part of b is zero, and so is
    that of x.  The block's residual equals the box's in exact arithmetic,
    |x| equals |z|, and the bound reads the largest column norm of the
    whole H - E, from its diagonal and the hop matrix, so the check is the
    one the whole box would get.
    """
    clear, spectra = clear_spectra
    nbox, n = len(h), h.shape[-1]
    E = np.broadcast_to(np.asarray(E, dtype=np.float64), (nbox,))
    ok, left = clear.copy(), np.flatnonzero(~clear)
    edge = np.maximum(np.abs(spectra[:, 0]), np.abs(spectra[:, -1]))
    gap = np.abs(spectra - E[left, None]).min(axis=1)
    ok[left] = ~within_guard(gap, E[left], edge)
    solved = np.flatnonzero(ok)
    whole, marked = _split(h, solved)
    pieces = ((rows, sub, False) for rows, sub in _pieces(h, whole))
    if len(marked):
        sectors, hop_columns = h.sectors, np.square(h.hop).sum(axis=0)
        pieces = chain(pieces, ((rows, sub, True) for rows, sub in h.sector_pieces(marked, 0)))
    at = np.empty(nbox, dtype=np.int64)
    at[solved] = np.arange(len(solved))
    xs, residuals = np.empty((len(solved), n, 1)), np.empty(len(solved))
    for rows, sub, symmetric in pieces:
        idx = np.arange(sub.shape[-1])
        e, b = E[rows], rhs[rows]
        if symmetric:
            if not np.array_equal(b, b[:, sectors.image]):
                raise PreconditionError("a diagonal-centred box is solved in its symmetric "
                                        "sector, so its right-hand side must be symmetric")
            b = b[:, sectors.sites[0]] / sectors.weight[sectors.sites[0], None]
        shifted = sub.copy()
        shifted[:, idx, idx] -= e[:, None]
        x = np.linalg.solve(shifted, b)
        r = sub @ x - e[:, None, None] * x - b
        # one dot product per box, as np.linalg.norm of a vector takes it; a
        # norm over stacked axes sums in another order
        residual = np.sqrt(np.swapaxes(r, 1, 2) @ r)[:, 0, 0]
        size = np.sqrt(np.swapaxes(x, 1, 2) @ x)[:, 0, 0]
        if not symmetric:
            column = _column_norm(shifted)
        else:
            column = np.sqrt((np.square(h.diagonal[rows] - e[:, None]) + hop_columns).max(axis=1))
            x = x[:, sectors.row] * sectors.weight[:, None]
        bound = SPECTRAL_RTOL * np.maximum(1.0, column * size)
        if np.any(residual > bound):
            raise NumericError(
                f"Green's function solve residual {residual.max():.3e} exceeds tolerance")
        xs[at[rows]], residuals[at[rows]] = x, residual
    return solved, xs, residuals


def _column_norm(a: np.ndarray) -> np.ndarray:
    """The largest column 2-norm of every matrix of the stack ``a``
    (``(nbox, n, n)``): ``|A e_j| <= |A|_2``, so it never exceeds the
    spectral norm."""
    return np.sqrt(np.einsum("bij,bij->bj", a, a)).max(axis=1)


def green_column(
    op: FiniteOperator,
    E: float,
    x: Point2 | int | None = None,
) -> tuple[np.ndarray, float]:
    """Solve ``(H - E) c = delta_x``; by symmetry ``c[y] = G(E; x, y)``.
    Returns the column and the residual norm ``|(H - E) c - delta_x|``.

    ``x`` defaults to the box center.  Raises ``ResonantEnergyError`` when E
    is within the guard of the spectrum, and ``NumericError`` when the
    residual exceeds ``_solve``'s bound.
    """
    idx = x if isinstance(x, (int, np.integer)) else (
        op.center_index() if x is None else op.index_of(x)
    )
    rhs = np.zeros((1, op.n, 1))
    rhs[0, idx] = 1.0
    solved, vec, residual = _solve(op.matrix[None], (np.zeros(1, dtype=bool),
                                                     op.eigenvalues()[None]), E, rhs)
    if len(solved) == 0:
        raise ResonantEnergyError(
            f"energy {E} within guard of the spectrum; classify as resonant")
    return vec[0, :, 0], float(residual[0])


def boundary_green_maxima(
    h: np.ndarray | BoxStack,
    clear_spectra: tuple[np.ndarray, np.ndarray],
    center_index: int,
    boundary_indices: np.ndarray,
    E: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Max |G(E; center, y)| over the interior boundary of every box of a
    stack of same-layout operators ``h`` (``(nbox, n, n)`` or a
    ``BoxStack``) at ``E`` (one energy for all boxes or one per box), and
    the position of the attaining point in ``boundary_indices``.

    ``clear_spectra`` says which boxes to guard, as ``_solve`` takes it.
    A box within the solver guard of E gets ``inf`` at position -1; the
    others share one ``_solve`` of ``(H - E) c = delta_center``.  A
    boundary-less layout gives 0 at position -1.
    """
    nbox, n = h.shape[:2]
    values = np.full(nbox, np.inf)
    where = np.full(nbox, -1, dtype=np.int64)
    rhs = np.zeros((nbox, n, 1))
    rhs[:, center_index] = 1.0
    solved, vec, _ = _solve(h, clear_spectra, E, rhs)
    if len(boundary_indices) == 0:
        values[solved] = 0.0
        return values, where
    vals = np.abs(vec[:, boundary_indices, 0])
    where[solved] = np.argmax(vals, axis=1)
    values[solved] = vals[np.arange(len(solved)), where[solved]]
    return values, where


def boundary_green_max(op: FiniteOperator, E: float) -> tuple[float, np.ndarray | None]:
    """Max |G(E; center, y)| over the interior boundary and the attaining
    point ((0, None) without a boundary): the one-box
    ``boundary_green_maxima``.  Raises ``ResonantEnergyError`` when E is
    within the guard of the spectrum."""
    idx = op.boundary_indices()
    values, where = boundary_green_maxima(
        op.matrix[None], (np.zeros(1, dtype=bool), op.eigenvalues()[None]),
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
    sums = np.add.outer(sd1.eigenvalues, sd2.eigenvalues)
    if within_guard(np.abs(sums - E).min(), E, np.abs(sums).max()):
        raise ResonantEnergyError(
            f"energy {E} within guard of a sum of factor eigenvalues"
        )
    a = sd1.eigenvectors[i_u1] * sd1.eigenvectors[i_y1]
    b = sd2.eigenvectors[i_u2] * sd2.eigenvectors[i_y2]
    return float(a @ (1.0 / (sums - E)) @ b)


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
    operator's adjacency, solved for all columns by one ``_solve``; its
    deviation from the given values is reported as ``max_error`` (the
    identity residual, nonzero when psi is not an eigenfunction).  Raises
    ``ResonantEnergyError`` when any energy is within the guard of the box
    spectrum, ``NumericError`` when a solve residual exceeds ``_solve``'s
    bound, and ``PreconditionError`` when ``ambient`` misses a point or the
    shapes of psi and energies disagree.
    """
    energies = np.asarray(energies, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if energies.ndim != 1 or psi.shape != (ambient.npoints, len(energies)):
        raise PreconditionError(
            f"psi must be ({ambient.npoints}, k) for k energies; got psi "
            f"{psi.shape} and energies {energies.shape}"
        )
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
    k = len(energies)
    w = np.zeros((k, op.n, 1))
    for j in range(k):
        # one product per column: a matrix product sums in another order
        w[j, bidx, 0] = coupling @ psi[at_ext, j]
    solved, x, _ = _solve(np.broadcast_to(op.matrix, (k, op.n, op.n)),
                          (np.zeros(k, dtype=bool), np.broadcast_to(op.eigenvalues(), (k, op.n))),
                          energies, w)
    if len(solved) < k:
        raise ResonantEnergyError(
            "an energy within guard of the box spectrum; recovery undefined")
    recon = -x[:, :, 0].T
    psi_sup = np.abs(psi[np.concatenate([at_box, at_ext])]).max(axis=0)
    max_error = np.abs(recon[interior] - psi[at_box[interior]]).max(axis=0, initial=0.0)
    return RecoveryResult(recon[interior], max_error, psi_sup)
