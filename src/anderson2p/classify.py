"""Box classifiers: singularity, resonance, complete non-resonance,
non-tunnelling, and the deterministic decay step for non-interactive boxes.

Terminology (standard in multi-scale analysis of random operators):

* a box is (E, m)-non-singular (NS) when every Green's function value from
  its center to its interior boundary is at most ``exp(-m * L)``;
* a box is E-resonant (R) when E is within ``exp(-L**beta)`` of its
  spectrum;
* a box at scale k+1 is (E, J)-completely non-resonant (CNR) when it and
  all contained boxes of radii ``j * (L_k + 1)``, j = 1..J, are E-NR;
* a single-particle box is ``m``-non-tunnelling (NT) when all products of
  an eigenvector's center and boundary values are at most ``exp(-m * l)``;
  a two-particle box is NT when both its projections are.

Existence-over-an-interval is decided exactly for resonance predicates
(``windows_meet`` of two ``resonance_windows`` sets) and on a recorded
energy grid for singularity predicates, whose Green's-function character
admits no exact continuum test.

Complete non-resonance at one energy asks of each sub-box only whether
some eigenvalue lies within the window: ``resolvent.window_clear``
certifies "none" box by box, by its Gershgorin discs or, where they come
near the window, by a Cholesky factorization of the stack of such boxes,
and only the boxes it cannot certify are diagonalized
(``resolvent.spectra_unless_clear``).  The counter step of the inductive
step (``msa.singular_subbox_counts``) asks the same question at a width
just above the solver guard, so it diagonalizes no certified box either.
``cnr_sweeps`` takes each parent's gap, ``inf`` for a parent certified
non-resonant: the inductive step certifies its parents at the resonance
width itself and reads no spectrum of a certified one, ``is_cnr`` reads
the gap from the spectrum.  ``nt_to_ns_check`` certifies its box from the
tensor sums of its factors, where they are its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .disorder import DisorderSample, InteractionSpec
from .errors import InvalidInputError, PreconditionError, ResonantEnergyError
from .geometry import Box1, Box2, Point2, is_interactive, projections
from .operators import (
    FiniteOperator,
    assemble_single_particle,
    assemble_two_particle,
    check_projections,
    concat_stacks,
    exchange_orbits,
    family_spectra,
    family_stack,
    pole_residues,
    single_particle_factors,
)
from .records import Record
from .resolvent import (
    boundary_green_max,
    boundary_green_maxima,
    guard_width,
    spectra_unless_clear,
    spectral_gap,
    within_guard,
)

#: budget rules for exhaustive sub-box enumeration in the CNR test
CNR_EXHAUSTIVE_LIMIT = 100_000
CNR_SAMPLE_BUDGET = 10_000

#: largest (candidates, n, energies) temporary one ``singular_mask_at`` block takes
MASK_BYTES = 1 << 18


def resonance_width(L: int, beta: float) -> float:
    return math.exp(-float(L) ** beta)


def energy_grid(
    interval: tuple[float, float],
    L: int,
    beta: float,
    spacing: Optional[float] = None,
) -> np.ndarray:
    """Recorded grid used to approximate 'exists E in I' for singularity
    events: spacing min(0.01 * |I|, half the resonance width), or an
    explicit positive override."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise InvalidInputError("energy interval must have positive length")
    if spacing is not None and not 0 < spacing < math.inf:
        raise InvalidInputError(f"grid spacing must be positive and finite, got {spacing}")
    delta = spacing if spacing is not None else min(0.01 * (b - a),
                                                    0.5 * resonance_width(L, beta))
    n = max(2, int(math.ceil((b - a) / delta)) + 1)
    return np.linspace(a, b, n)


@dataclass
class NSWitness:
    """Evidence behind a singularity verdict."""

    max_boundary_gf: float
    attaining_point: Optional[tuple[int, ...]]
    threshold: float
    degenerate: bool = False
    resonant: bool = False


def is_ns(
    box: Box2,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    m: float,
    adjacency: str = "sup",
    op: Optional[FiniteOperator] = None,
) -> tuple[bool, NSWitness]:
    """(E, m)-non-singularity of a two-particle box.

    A radius-0 box has no boundary and is vacuously NS (flagged
    degenerate).  An energy within the solver guard of the spectrum yields
    a singular verdict with a resonance witness.
    """
    threshold = math.exp(-m * box.radius)
    if box.radius == 0:
        return True, NSWitness(0.0, None, threshold, degenerate=True)
    if op is None:
        op = assemble_two_particle(box, sample, interaction, g, adjacency)
    try:
        value, point = boundary_green_max(op, E)
    except ResonantEnergyError:
        return False, NSWitness(math.inf, None, threshold, resonant=True)
    ns = value <= threshold
    pt = tuple(int(c) for c in point) if point is not None else None
    return ns, NSWitness(value, pt, threshold)


def singular_at_spectral(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    center_index: int,
    boundary_indices: np.ndarray,
    radius: int,
    E: float,
    m: float,
) -> bool:
    """``singular_mask_at`` for one box and one energy, from its
    eigendecomposition.  Equivalent to ``is_ns`` up to roundoff, with
    energies within the solver guard of the spectrum counted as
    singular."""
    residues = eigenvectors[boundary_indices] * eigenvectors[center_index]
    return bool(singular_mask_at(eigenvalues[None], residues[None],
                                 math.exp(-m * radius), E)[0])


def singular_mask_at(
    poles: np.ndarray,  # (ncand, n) per-candidate ascending spectra
    residues: np.ndarray,  # (ncand, nb, n)
    threshold: float,
    E: float | np.ndarray,
) -> np.ndarray:
    """Singularity of every box of a stack of same-layout boxes, given as
    the poles and residues of their centre-to-boundary Green's functions
    (``operators.pole_residues``): a box is singular at E when some
    ``|G(E; c, y)| = |sum_s r_s(y) / (lambda_s - E)|`` exceeds
    ``threshold``, or when E is within the solver guard of its spectrum.

    A scalar ``E`` gives a ``(ncand,)`` mask, a 1-D energy array an
    ``(nE, ncand)`` mask.  Energies are taken in blocks whose
    ``(ncand, n, block)`` temporaries fit in ``MASK_BYTES``.
    """
    energies = np.atleast_1d(np.asarray(E, dtype=np.float64))
    ncand, n = poles.shape
    edge = np.maximum(np.abs(poles[:, 0]), np.abs(poles[:, -1]))
    out = np.empty((len(energies), ncand), dtype=bool)
    step = max(1, MASK_BYTES // (8 * ncand * n))
    for lo in range(0, len(energies), step):
        block = energies[lo:lo + step]
        shift = poles[:, :, None] - block  # (ncand, n, block)
        mask = within_guard(np.abs(shift).min(axis=1), block, edge[:, None])
        if residues.shape[1]:
            with np.errstate(divide="ignore", invalid="ignore"):
                cols = residues @ (1.0 / shift)  # (ncand, nb, block)
            mask |= np.abs(cols).max(axis=1) > threshold
        out[lo:lo + step] = mask.T
    return out if np.ndim(E) else out[0]


def is_resonant(ev: np.ndarray, E: float, L: int, beta: float) -> tuple[bool, float]:
    """E-resonance: the spectrum ``ev`` comes within exp(-L**beta) of E.
    Returns the verdict and the spectral gap."""
    gap = float(np.abs(ev - E).min())
    return gap < resonance_width(L, beta), gap


def resonance_windows(
        spectra: Sequence[tuple[np.ndarray, float]]) -> tuple[np.ndarray, np.ndarray]:
    """The energies at which some spectrum is resonant: the union of the
    open windows ``(lam - w, lam + w)`` of every ``(eigenvalues, w)``, as
    the ascending ends ``(lo, hi)`` of its disjoint merged windows.
    Touching windows merge, which adds no overlap of positive length."""
    lo = np.concatenate([(ev - w).ravel() for ev, w in spectra])
    hi = np.concatenate([(ev + w).ravel() for ev, w in spectra])
    order = np.argsort(lo)
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    start = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    return lo[start], reach[np.r_[start[1:] - 1, len(lo) - 1]]


def windows_meet(first: tuple[np.ndarray, np.ndarray],
                 second: tuple[np.ndarray, np.ndarray],
                 interval: Optional[tuple[float, float]]) -> Optional[tuple[float, float]]:
    """Lowest common window of two ``resonance_windows`` sets inside the
    open ``interval`` (None: anywhere), or None.  A window of ``first``
    meets ``second`` there exactly when it meets the first window of
    ``second`` that ends above its clipped lower end."""
    a, b = interval if interval is not None else (-math.inf, math.inf)
    lo, hi = np.maximum(first[0], a), np.minimum(first[1], b)
    j = np.searchsorted(second[1], lo, side="right")
    i = np.flatnonzero(j < len(second[1]))
    lo, hi = np.maximum(lo[i], second[0][j[i]]), np.minimum(hi[i], second[1][j[i]])
    hits = np.flatnonzero(lo < hi)
    return (float(lo[hits[0]]), float(hi[hits[0]])) if len(hits) else None


def exists_resonant_pair(
    ev1: np.ndarray,
    ev2: np.ndarray,
    interval: Optional[tuple[float, float]],
    L: int,
    beta: float,
) -> tuple[bool, Optional[tuple[float, float]]]:
    """Exact test for 'some E (in the interval) makes both operators
    resonant': their ``resonance_windows`` of half-width
    ``exp(-L**beta)`` meet (``windows_meet``).  Returns the verdict and
    the lowest such window of energies.  No energy grid is involved."""
    eps = resonance_width(L, beta)
    common = windows_meet(resonance_windows([(ev1, eps)]),
                          resonance_windows([(ev2, eps)]), interval)
    return common is not None, common


@dataclass
class CnrReport:
    """Outcome of the complete-non-resonance test at scale k+1."""

    ok: bool
    failed_center: Optional[tuple[int, ...]] = None
    failed_radius: Optional[int] = None
    failed_gap: Optional[float] = None
    n_candidates: int = 0
    n_checked: int = 0
    exhaustive: bool = True


def cnr_subbox_layout(k: int, schedule) -> list[tuple[int, int]]:
    """(radius, max center offset) pairs of the sub-boxes probed by the CNR
    test: radii j*(L_k + 1) for j = 1..J that fit inside the parent."""
    out = []
    L_next = schedule.L[k + 1]
    for j in range(1, schedule.J + 1):
        r = j * (schedule.L[k] + 1)
        if r <= L_next:
            out.append((r, L_next - r))
    return out


def is_cnr(
    center: Point2,
    k: int,
    schedule,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    adjacency: str = "sup",
    parent_op: Optional[FiniteOperator] = None,
    exhaustive_limit: int = CNR_EXHAUSTIVE_LIMIT,
    sample_budget: int = CNR_SAMPLE_BUDGET,
) -> CnrReport:
    """(E, J)-complete non-resonance of the scale-(k+1) box at ``center``:
    the one-sample ``cnr_sweeps``, given the parent's gap read from its
    spectrum (``parent_op``, which must be the operator of the scale-(k+1)
    box at ``center``, is assembled when not given).
    """
    parent = Box2(center, schedule.L[k + 1])
    if parent_op is None:
        parent_op = assemble_two_particle(parent, sample, interaction, g, adjacency)
    elif parent_op.box != parent:
        raise InvalidInputError(
            f"parent_op is the box at {parent_op.box.center.flat} of radius "
            f"{parent_op.box.radius}, not the scale-{k + 1} box at {center.flat} "
            f"of radius {parent.radius}")
    else:
        check_projections(parent, sample)
    return cnr_sweeps(center, k, schedule, [sample], [E], interaction, g, adjacency,
                      [spectral_gap(parent_op, E)], exhaustive_limit, sample_budget)[0]


def cnr_sweeps(
    center: Point2,
    k: int,
    schedule,
    samples: Sequence[DisorderSample],
    energies: Sequence[float],
    interaction: InteractionSpec,
    g: float,
    adjacency: str,
    parent_gaps: Sequence[float],
    exhaustive_limit: int = CNR_EXHAUSTIVE_LIMIT,
    sample_budget: int = CNR_SAMPLE_BUDGET,
) -> list[CnrReport]:
    """Complete non-resonance of the scale-(k+1) box at ``center``, one
    report per sample, at its energy and given the parent's distance from
    it: a resonant parent fails with no sub-box probed, and ``inf`` stands
    for a parent that ``resolvent.window_clear`` certified non-resonant.

    The sub-boxes are probed exhaustively while their count stays within
    budget, else a seeded uniform subsample (per sample) is checked and
    the report is marked non-exhaustive.  Each probed radius is one
    ``operators.family_stack`` of one box per exchange orbit
    (``operators.exchange_orbits``) for every sample not yet failed,
    decided by one ``spectra_unless_clear``: a certified box is not
    resonant, and the boxes it cannot certify are diagonalized and
    scanned, so each sample's first resonant sub-box in probe order, its
    gap and every other field are those of a sweep over the spectra.
    """
    if schedule.J < 1 or schedule.J % 2 == 0:
        raise InvalidInputError("CNR sub-box count J must be odd and positive")
    parent = Box2(center, schedule.L[k + 1])
    layout = cnr_subbox_layout(k, schedule)
    total = sum((2 * off + 1) ** (2 * parent.d) for _, off in layout)
    exhaustive = total <= exhaustive_limit
    reports: list[Optional[CnrReport]] = [
        CnrReport(False, failed_center=center.flat, failed_radius=parent.radius,
                  failed_gap=gap, n_candidates=total, n_checked=0, exhaustive=exhaustive)
        if gap < resonance_width(parent.radius, schedule.beta) else None
        for gap in parent_gaps]
    rngs = None
    if not exhaustive:
        rngs = [Generator(Philox(key=np.array([sample.seed & (2**64 - 1),
                                               (sample.trial << 1) ^ 0xC2B2],
                                              dtype=np.uint64)))
                if rep is None else None for sample, rep in zip(samples, reports)]
    checked = 0
    for radius, max_off in layout:
        alive = [i for i, rep in enumerate(reports) if rep is None]
        if not alive:
            break
        # an image box has its representative's spectrum, and a
        # representative never comes after its image, so the first resonant
        # representative is the first resonant box in probe order
        if exhaustive:
            everywhere = Box2(center, max_off).points()
            families = [everywhere] * len(alive)
            reps = [exchange_orbits(everywhere)[0]] * len(alive)
            stack = family_stack(everywhere[reps[0]], radius, [samples[i] for i in alive],
                                 interaction, g, adjacency)
        else:
            share = max(1, int(sample_budget * (2 * max_off + 1) ** (2 * parent.d) / total))
            families = [np.array(center.flat) + rngs[i].integers(
                -max_off, max_off + 1, size=(share, 2 * parent.d)) for i in alive]
            reps = [exchange_orbits(c)[0] for c in families]
            stack = concat_stacks([
                family_stack(c[r], radius, [samples[i]], interaction, g, adjacency)
                for c, r, i in zip(families, reps, alive)])
        row_energy = np.repeat([float(energies[i]) for i in alive], [len(r) for r in reps])
        width = resonance_width(radius, schedule.beta)
        clear, spectra = spectra_unless_clear(stack, row_energy, width)
        gaps = np.full(len(stack), np.inf)
        left = np.flatnonzero(~clear)
        gaps[left] = np.abs(spectra - row_energy[left, None]).min(axis=1)
        first = 0  # row of the sample's first representative
        for i, c, r in zip(alive, families, reps):
            hits = np.flatnonzero(gaps[first:first + len(r)] < width)
            if len(hits):
                j = int(r[hits[0]])
                reports[i] = CnrReport(
                    False, failed_center=tuple(int(x) for x in c[j]),
                    failed_radius=radius, failed_gap=float(gaps[first + hits[0]]),
                    n_candidates=total, n_checked=checked + j + 1, exhaustive=exhaustive,
                )
            first += len(r)
        checked += len(families[0])
    return [rep or CnrReport(True, n_candidates=total, n_checked=checked,
                             exhaustive=exhaustive) for rep in reports]


def not_cnr_windows(
    center: Point2, k: int, schedule, sample: DisorderSample,
    interaction: InteractionSpec, g: float, adjacency: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact set of energies at which the scale-(k+1) box at ``center``
    fails complete non-resonance: ``resonance_windows`` of the box and of
    every probed sub-box, exchange images included, as an image's own
    ``eigvalsh`` (a window end) differs from its representative's in the
    last bits."""
    check_projections(Box2(center, schedule.L[k + 1]), sample)
    families = [(schedule.L[k + 1], np.array([center.flat]))] + [
        (r, Box2(center, off).points()) for r, off in cnr_subbox_layout(k, schedule)]
    return resonance_windows([
        (ev, resonance_width(radius, schedule.beta)) for radius, centers in families
        for ev in family_spectra(centers, radius, sample, interaction, g, adjacency)])


@dataclass
class NTWitness:
    """Largest center-boundary eigenvector product and where it occurs."""

    max_product: float
    state: Optional[int]
    attaining_point: Optional[tuple[int, ...]]
    threshold: float
    cap: float  # largest mass for which the box is still non-tunnelling
    degenerate: bool = False


def is_nontunnelling(
    box: Box1,
    sample: DisorderSample,
    g: float,
    m_hat: float,
    adjacency: str = "sup",
    op: Optional[FiniteOperator] = None,
) -> tuple[bool, NTWitness]:
    """m-non-tunnelling for a single-particle box: every eigenvector's
    center-boundary product, a residue of ``operators.pole_residues``,
    stays below exp(-m * radius)."""
    threshold = math.exp(-m_hat * box.radius)
    if box.radius == 0:
        return True, NTWitness(0.0, None, None, threshold, math.inf, degenerate=True)
    if op is None:
        op = assemble_single_particle(box, sample, g, adjacency=adjacency)
    bidx = box.boundary_indices()
    prod = np.abs(pole_residues(op.matrix[None], box.center_index(), bidx)[1][0])
    j_flat = int(np.argmax(prod))
    iy, s = np.unravel_index(j_flat, prod.shape)
    value = float(prod[iy, s])
    cap = math.inf if value == 0.0 else -math.log(value) / box.radius
    witness = NTWitness(
        value, int(s), tuple(int(c) for c in op.points[bidx[iy]]), threshold, cap
    )
    return value <= threshold, witness


def nt_decay_discount(L: int, beta: float, d: int) -> float:
    """Relative mass loss when converting a non-tunnelling bound into a
    non-singularity bound on a non-interactive box:
    1 - L**(beta-1) - ln((2L+1)**(2d)) / L."""
    return 1.0 - float(L) ** (beta - 1.0) - math.log((2 * L + 1) ** (2 * d)) / L


def nt_size_condition(L: int, beta: float, d: int) -> bool:
    """Size condition for the conversion: (L**beta + ln((2L+1)**(2d))) / L < 1."""
    return (float(L) ** beta + math.log((2 * L + 1) ** (2 * d))) / L < 1.0


def _tensor_sum_error(op: FiniteOperator, op1: FiniteOperator, op2: FiniteOperator,
                      E: float) -> float:
    """A bound on how far the gap at E of the non-interactive box ``op``
    under ``l1`` adjacency, as its own ``eigvalsh`` would report it, lies
    from the gap of the sums of its factors' (``op1``, ``op2``)
    eigenvalues: 2 n eps (||H - E||_F + |E| + ||H_1||_F + ||H_2||_F).
    It covers ``eigvalsh``'s error on the box (``window_clear``'s eta) and
    on each factor, the rounding of the assembled diagonal against the
    exact tensor sum, and the rounding of the sums."""
    n = op.n
    eps = np.finfo(np.float64).eps
    norms = (np.linalg.norm(op.matrix - E * np.eye(n)) + abs(E)
             + np.linalg.norm(op1.matrix) + np.linalg.norm(op2.matrix))
    return float(2 * n * eps * norms)


@dataclass
class NtToNsReport(Record):
    """Record of one instance of the deterministic step 'non-tunnelling
    projections + non-resonant box => non-singular box at a reduced mass'
    on a non-interactive box."""

    kind = "nt_to_ns"

    center: tuple[int, ...]
    radius: int
    energy: float
    m_hat: float
    hyp_nt1: bool
    hyp_nt2: bool
    hyp_nr: bool
    hyp_size: bool
    gap: float
    m_eff: Optional[float] = None
    ns_ok: Optional[bool] = None
    ns_margin: Optional[float] = None
    max_boundary_gf: Optional[float] = None
    skipped: bool = False

    @property
    def hypotheses_hold(self) -> bool:
        return self.hyp_nt1 and self.hyp_nt2 and self.hyp_nr and self.hyp_size


def nt_to_ns_check(
    box: Box2,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    m_hat: float,
    beta: float,
    adjacency: str = "l1",
) -> NtToNsReport:
    """Check the deterministic decay step on a non-interactive box.

    When both projections are ``m_hat``-NT, the box is E-NR, and the size
    condition holds, the box must be NS at the reduced mass
    ``m_hat * nt_decay_discount(L, beta, d)``; the conversion algebra needs
    ``m_hat >= 1``, which callers should ensure when asserting.  Instances
    whose hypotheses fail are reported as skipped, not failures.  Raises
    ``PreconditionError`` for an interactive box and for a box of radius
    0, whose size condition and discount divide by the radius.
    """
    if is_interactive(box, interaction.r0):
        raise PreconditionError("the decay step applies to non-interactive boxes")
    if box.radius < 1:
        raise PreconditionError(
            f"the decay step needs a box of radius at least 1, got radius {box.radius}")
    L, d = box.radius, box.d
    # non-interactive box spectrum via its factors (exact under l1 adjacency)
    op1, op2 = single_particle_factors(box, sample, g, adjacency)
    sums = np.add.outer(op1.eigenvalues(), op2.eigenvalues()).ravel()
    ok1, w1 = is_nontunnelling(op1.box, sample, g, m_hat, adjacency, op=op1)
    ok2, w2 = is_nontunnelling(op2.box, sample, g, m_hat, adjacency, op=op2)
    resonant, gap = is_resonant(sums, E, L, beta)
    size_ok = nt_size_condition(L, beta, d)
    report = NtToNsReport(
        center=box.center.flat,
        radius=L,
        energy=float(E),
        m_hat=float(m_hat),
        hyp_nt1=ok1,
        hyp_nt2=ok2,
        hyp_nr=not resonant,
        hyp_size=size_ok,
        gap=gap,
    )
    if not report.hypotheses_hold:
        report.skipped = True
        return report
    m_eff = m_hat * nt_decay_discount(L, beta, d)
    op = assemble_two_particle(box, sample, interaction, g, adjacency)
    # under l1 the sums are the box's spectrum, and a gap that clears the
    # guard certifies the box without diagonalizing it
    clear = (op.adjacency == "l1"
             and gap - _tensor_sum_error(op, op1, op2, E) >= guard_width(op.matrix[None], E)[0])
    spectra = np.empty((0, op.n)) if clear else op.eigenvalues()[None]
    [value], _ = boundary_green_maxima(op.matrix[None], (np.array([clear]), spectra),
                                       op.center_index(), op.boundary_indices(), E)
    threshold = math.exp(-m_eff * L)
    report.m_eff = float(m_eff)
    report.ns_ok = bool(value <= threshold)
    report.max_boundary_gf = float(value)
    report.ns_margin = float(threshold - value)
    return report


@dataclass
class ClassificationReport(Record):
    """Aggregate classification of one box at one energy, with the witness
    data each flag can be reproduced from."""

    kind = "classification"

    center: tuple[int, ...]
    radius: int
    energy: float
    mass: float
    adjacency: str
    interactive: bool
    ns: bool
    max_boundary_gf: float
    gf_point: Optional[tuple[int, ...]]
    resonant: bool
    gap: float
    nearest_eigenvalue: float
    nt: Optional[bool] = None
    nt_mass: Optional[float] = None
    nt_max_product: Optional[float] = None
    nt_point: Optional[tuple[int, ...]] = None
    nt_state: Optional[int] = None
    cnr: Optional[bool] = None
    cnr_J: Optional[int] = None
    degenerate: bool = False
    beta: float = 0.5


def classify_box(
    box: Box2,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    m: float,
    beta: float = 0.5,
    adjacency: str = "sup",
    nt_mass: Optional[float] = None,
    schedule=None,
    k: Optional[int] = None,
) -> ClassificationReport:
    """Full classification of a box: singular/resonant/interactive flags,
    optional non-tunnelling (at ``nt_mass``) and complete non-resonance
    (when a schedule and scale index are supplied)."""
    op = assemble_two_particle(box, sample, interaction, g, adjacency)
    ev = op.eigenvalues()
    nearest = float(ev[np.argmin(np.abs(ev - E))])
    resonant, gap = is_resonant(ev, E, box.radius, beta)
    ns, w = is_ns(box, sample, interaction, g, E, m, adjacency, op=op)
    rep = ClassificationReport(
        center=box.center.flat,
        radius=box.radius,
        energy=float(E),
        mass=float(m),
        adjacency=adjacency,
        interactive=is_interactive(box, interaction.r0),
        ns=bool(ns),
        max_boundary_gf=w.max_boundary_gf,
        gf_point=w.attaining_point,
        resonant=bool(resonant),
        gap=float(gap),
        nearest_eigenvalue=nearest,
        degenerate=w.degenerate,
        beta=beta,
    )
    if nt_mass is not None:
        # a two-particle box is non-tunnelling when both projections are
        p1, p2 = projections(box)
        ok1, w1 = is_nontunnelling(p1, sample, g, nt_mass, adjacency)
        ok2, w2 = is_nontunnelling(p2, sample, g, nt_mass, adjacency)
        worst = w1 if w1.max_product >= w2.max_product else w2
        rep.nt = ok1 and ok2
        rep.nt_mass = float(nt_mass)
        rep.nt_max_product = worst.max_product
        rep.nt_point = worst.attaining_point
        rep.nt_state = worst.state
    if schedule is not None and k is not None:
        cnr = is_cnr(box.center, k, schedule, sample, interaction, g, E, adjacency,
                     parent_op=op)
        rep.cnr = cnr.ok
        rep.cnr_J = schedule.J
    return rep
