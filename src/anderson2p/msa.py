"""Scale/mass recursion, parameter constraints, sub-box singularity
counters, and the deterministic inductive non-singularity step.

The scale sequence is ``L_k = ceil(L0 ** (alpha ** k))`` and the mass
sequence ``m_k = m0 * prod_{j<=k} (1 - gamma * L_j ** -0.5)``; a schedule is
rejected when any requested mass fails to be positive.  The counters M/N/K
count maximal families of pairwise well-separated singular sub-boxes
(non-interactive, interactive, and all, respectively), where separation is
the exchange-symmetrised center distance exceeding ``8 * L_k``.

The inductive step asks only window questions of its spectra, so it
diagonalizes no box that ``resolvent.window_clear`` certifies (by its
Gershgorin discs, else by a Cholesky factorization): the parent at its
resonance width, the CNR sub-boxes at theirs, and the counter's sub-boxes
at the solver guard width.  Before that, the counter certifies its
strictly dominant sub-boxes non-singular with no LAPACK
(``resolvent.dominance_certified``), and only the rest are window-tested
and solved.  A certified parent is non-resonant and clear
of the guard, and is solved with no spectrum: each window test's
``(clear, spectra)`` pair goes to ``resolvent.boundary_green_maxima`` as
it is, so every stack is one solve.  ``inductive_ns_steps`` decides a
batch of samples, each at its own energy, stage by stage: each stage's
boxes of every sample form one ``operators.BoxStack`` (one hop matrix,
one diagonal per box), so the geometry is built once per batch, and each
window test, ``eigvalsh`` and solve covers the batch in pieces of at most
``operators.STACK_BYTES``.
Every stacked LAPACK call and matrix product treats each box on its own,
so a sample's report does not depend on the batch it is decided in;
``inductive_ns_step`` and ``count_singular_subboxes`` are the one-sample
batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .classify import cnr_sweeps, resonance_width, singular_mask_at
from .disorder import DisorderSample, InteractionSpec
from .errors import InfeasibleScheduleError, InvalidInputError
from .geometry import Box2, Point2
from .operators import (
    check_projections,
    exchange_orbits,
    family_stack,
    pole_residues,
)
from .records import Record
from .resolvent import (
    boundary_green_maxima,
    dominance_certified,
    guard_width,
    spectra_unless_clear,
)


@dataclass(frozen=True)
class ScaleSchedule:
    """All multi-scale parameters plus the precomputed L and m tables."""

    L0: int
    alpha: float
    gamma: float
    m0: float
    beta: float
    p: float
    q: float
    r0: int
    g: float
    J: int
    d: int
    k_max: int
    preset: str
    L: tuple[int, ...]
    m: tuple[float, ...]
    p_tilde: Optional[float] = None
    rounding: str = "ceil"  # box radii from real-valued lengths round up

    @property
    def non_asymptotic_regime(self) -> bool:
        return self.preset != "asymptotic"

    @property
    def single_particle_exponent(self) -> Optional[float]:
        """s = (p_tilde - 2(1 + alpha) d) / alpha; None without ``p_tilde``."""
        if self.p_tilde is None:
            return None
        return (self.p_tilde - 2 * (1 + self.alpha) * self.d) / self.alpha


def scale_length(L0: int, alpha: float, k: int) -> int:
    """L_k = ceil(L0 ** (alpha ** k)); exact integer powers stay exact."""
    if k == 0:
        return int(L0)
    return math.ceil(float(L0) ** (alpha**k) - 1e-12)


def schedule(
    L0: int,
    alpha: float,
    gamma: float,
    m0: float,
    k_max: int = 3,
    *,
    beta: float = 0.5,
    p: float = 2.0,
    q: float = 8.0,
    r0: int = 1,
    g: float = 1.0,
    J: int = 9,
    d: int = 1,
    preset: str = "custom",
    p_tilde: Optional[float] = None,
) -> ScaleSchedule:
    """Build and validate a scale schedule with tables L_0..L_kmax and
    m_0..m_kmax.  Raises ``InfeasibleScheduleError`` naming the first scale
    whose mass is non-positive."""
    if L0 < 2:
        raise InvalidInputError("initial length L0 must be an integer >= 2")
    if not alpha > 1:
        raise InvalidInputError("growth exponent alpha must exceed 1")
    if not m0 > 0:
        raise InvalidInputError("initial mass m0 must be positive")
    if not 0 < beta < 1:
        raise InvalidInputError("resonance exponent beta must lie in (0, 1)")
    if J < 1 or J % 2 == 0:
        raise InvalidInputError("J must be an odd positive integer")
    lengths = [scale_length(L0, alpha, k) for k in range(k_max + 1)]
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise InvalidInputError("scale lengths must be strictly increasing")
    masses = [float(m0)]
    for k in range(1, k_max + 1):
        mk = masses[-1] * (1.0 - gamma / math.sqrt(lengths[k]))
        if mk <= 0:
            raise InfeasibleScheduleError(
                f"mass becomes non-positive at scale k={k} "
                f"(gamma={gamma}, L_{k}={lengths[k]})",
                k=k,
            )
        masses.append(mk)
    return ScaleSchedule(
        L0=int(L0), alpha=float(alpha), gamma=float(gamma), m0=float(m0),
        beta=float(beta), p=float(p), q=float(q), r0=int(r0), g=float(g),
        J=int(J), d=int(d), k_max=int(k_max), preset=preset,
        L=tuple(lengths), m=tuple(masses), p_tilde=p_tilde,
    )


#: each preset's schedule parameters (``schedule``'s argument names) and
#: the coupling ``g`` a configuration of that preset defaults to
PRESETS = {
    "desk": {"L0": 3, "alpha": 1.5, "gamma": 1.0, "m0": 0.5, "beta": 0.5,
             "p": 2.0, "q": 8.0, "J": 9, "k_max": 2, "p_tilde": None, "g": 30.0},
    "asymptotic": {"L0": 10_000, "alpha": 1.5, "gamma": 40.0, "m0": 1.0,
                   "beta": 0.5, "p": 22.0, "q": 101.0, "J": 9, "k_max": 2,
                   "p_tilde": 160.0, "g": 1000.0},
}


def desk_schedule(**kw) -> ScaleSchedule:
    """Small-scale preset for desk experiments; deliberately outside the
    large-L parameter regime and labelled as such."""
    return schedule(**{**PRESETS["desk"], **kw}, preset="desk")


def asymptotic_schedule(**kw) -> ScaleSchedule:
    """Preset satisfying all structural parameter constraints (large L0).
    Its coupling defaults to ``schedule``'s 1.0, not the preset's
    configuration default: no constraint reads it."""
    return schedule(**{**PRESETS["asymptotic"], "g": 1.0, **kw}, preset="asymptotic")


def mass_step_value(m_k: float, L_k: int, J: int) -> float:
    return m_k * (1.0 - (5 * J + 6) / math.sqrt(2.0 * L_k))


@dataclass
class ConstraintCheck:
    name: str
    detail: str
    status: str  # "pass" | "fail" | "skipped"


@dataclass
class ParameterReport(Record):
    kind = "parameter_report"

    checks: list[ConstraintCheck]
    asymptotic_regime: bool


def _mass_product(gamma: float, L0: int, alpha: float, terms: int = 50) -> float:
    prod = 1.0
    log_l0 = math.log(L0)
    for j in range(1, terms + 1):
        exponent = 0.5 * (alpha**j) * log_l0
        term = 1.0 - (gamma * math.exp(-exponent) if exponent < 700 else 0.0)
        if term <= 0:
            return 0.0
        prod *= term
    return prod


def validate_parameters(sched: ScaleSchedule) -> ParameterReport:
    """Per-constraint pass/fail table for the schedule's parameters,
    including the derived single-particle exponents when available."""
    d, a = sched.d, sched.alpha
    checks: list[ConstraintCheck] = []

    def add(name, ok, detail):
        checks.append(ConstraintCheck(name, detail, "pass" if ok else "fail"))

    add("alpha_gt_1", a > 1, f"alpha={a} > 1")
    add("p_vs_alpha_d", sched.p > a * d > 1,
        f"p={sched.p} > alpha*d={a * d} > 1")
    add("gamma_min", sched.gamma >= 40, f"gamma={sched.gamma} >= 40")
    add("p_large", sched.p > 12 * d + 9, f"p={sched.p} > 12d+9={12 * d + 9}")
    add("q_vs_p", sched.q > 4 * sched.p + 12 * d,
        f"q={sched.q} > 4p+12d={4 * sched.p + 12 * d}")
    add("beta_half", sched.beta == 0.5, f"beta={sched.beta} == 1/2")
    add("alpha_three_halves", a == 1.5, f"alpha={a} == 3/2")
    add("gamma_forty", sched.gamma == 40, f"gamma={sched.gamma} == 40")
    prod = _mass_product(sched.gamma, sched.L0, a)
    add("mass_product_half", prod >= 0.5,
        f"prod(1 - gamma*L_j**-0.5) ~= {prod:.6f} >= 1/2")
    # the J=9 inductive factor stays inside the gamma=40 envelope:
    # (5J+6)/sqrt(2) = 51/sqrt(2) ~= 36.06 < 40
    step_const = (5 * 9 + 6) / math.sqrt(2.0)
    add("mass_step_consistency", step_const < 40,
        f"51/sqrt(2)={step_const:.4f} < 40")
    if sched.p_tilde is not None:
        s = sched.single_particle_exponent
        add("single_particle_exponent_margin", s - 2 * sched.p > 1,
            f"s - 2p = {s - 2 * sched.p:.4f} > 1 (s={s:.4f})")
        qp = sched.q / a
        add("cnr_exponent_margin", qp - 2 * sched.p - 4 > 1,
            f"q/alpha - 2p - 4 = {qp - 2 * sched.p - 4:.4f} > 1")
    else:
        checks.append(ConstraintCheck(
            "single_particle_exponent_margin", "p_tilde not set", "skipped"))
        checks.append(ConstraintCheck(
            "cnr_exponent_margin", "p_tilde not set", "skipped"))
    structural = ("alpha_gt_1", "p_vs_alpha_d", "gamma_min", "p_large",
                  "q_vs_p", "beta_half", "alpha_three_halves", "gamma_forty",
                  "mass_product_half")
    strict = all(c.status == "pass" for c in checks if c.name in structural)
    return ParameterReport(checks, asymptotic_regime=strict)


def packing_ceiling(flat: np.ndarray, min_separation: int) -> int:
    """Upper bound on a family of the flat ``(n, 2d)`` centers pairwise
    separated by more than ``min_separation`` in the exchange-symmetrised
    metric.  Such centers are also separated in sup distance, so they fit
    one per cell of side ``min_separation + 1``: P counts the cells covering
    their 2d-dimensional bounding box.  On a one-particle grid of such cells
    shared by both particles (covering the union of their coordinate
    ranges), with C cells, a center lies in a cell pair (A, B), and (A, B)
    conflicts with (B, A) through the exchange image, so at most
    C (C + 1) / 2 cell pairs hold a member.  Returns the smaller bound."""
    side = min_separation + 1
    d = flat.shape[1] // 2
    extent = (flat.max(axis=0) - flat.min(axis=0)).tolist()
    P = math.prod(e // side + 1 for e in extent)
    both = np.concatenate([flat[:, :d], flat[:, d:]])
    C = math.prod(e // side + 1 for e in (both.max(axis=0) - both.min(axis=0)).tolist())
    return min(P, C * (C + 1) // 2)


def max_separated_subset(centers: Sequence[Point2] | np.ndarray,
                         min_separation: int) -> tuple[int, list[int], bool]:
    """Largest subset of centers pairwise separated by more than
    ``min_separation`` in the exchange-symmetrised metric, found exactly
    (the inductive step's 'K <= J' decisions need the true maximum).
    ``centers`` are points or an ``(n, 2d)`` integer array of flat centers.

    A ceiling of 1 from ``packing_ceiling`` (which counts cells of side
    ``min_separation + 1``, pairing each cell pair with its exchange image)
    needs no search.  Otherwise a branch-and-bound over bitsets, pruned by
    first-fit clique covers of the conflict graph, stops at the ceiling.
    It recurses once per chosen center and returns the first largest
    subset in index order.
    Returns (size, chosen indices, exact flag); the flag is always true.
    """
    n = len(centers)
    if n == 0:
        return 0, [], True
    if isinstance(centers, np.ndarray):
        flat = centers.astype(np.int64, copy=False)
    else:
        flat = np.array([c.flat for c in centers], dtype=np.int64)
    ceiling = packing_ceiling(flat, min_separation)
    if ceiling == 1:
        return 1, [0], True
    swapped = np.roll(flat, flat.shape[1] // 2, axis=1)  # (x1, x2) -> (x2, x1)
    conflict = np.minimum(kernels.pairwise_dist(flat, flat, "sup"),
                          kernels.pairwise_dist(swapped, flat, "sup")) <= min_separation
    np.fill_diagonal(conflict, False)
    near = [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(conflict, axis=1, bitorder="little")]
    full = (1 << n) - 1
    # bit j of later[i] is set when j > i and centers i and j are separated
    later = [(full ^ near_i) >> (i + 1) << (i + 1) for i, near_i in enumerate(near)]

    def cover(cand: int) -> int:
        cliques = 0
        while cand:
            cliques += 1
            clique = cand
            while clique:
                low = clique & -clique
                cand ^= low
                clique &= near[low.bit_length() - 1]
        return cliques

    best, chosen = [], []

    def extend(cand: int):
        nonlocal best
        while cand and len(best) < ceiling:
            if len(chosen) + cover(cand) <= len(best):
                return
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            chosen.append(i)
            if len(chosen) > len(best):
                best = list(chosen)
            extend(cand & later[i])
            chosen.pop()

    extend(full)
    return len(best), best, True


@dataclass
class CounterReport(Record):
    """Maximal pairwise-separated singular sub-box counts inside a parent
    box: M over non-interactive, N over interactive, K over all."""

    kind = "counter_report"

    center: tuple[int, ...]
    k: int
    energy: float
    mass: float
    separation: int
    n_candidates: int
    singular_ni: list[tuple[int, ...]]
    singular_i: list[tuple[int, ...]]
    M: int
    N: int
    K: int
    witnesses_ni: list[tuple[int, ...]]
    witnesses_i: list[tuple[int, ...]]
    witnesses_all: list[tuple[int, ...]]
    exact: bool = True  # the subset search is always exact


@dataclass
class SubboxSpectra:
    """Poles and residues (``operators.pole_residues``) of the scale-k
    sub-boxes of a parent box, one box per exchange orbit
    (``operators.exchange_orbits``).  Translated sub-boxes share the
    hopping matrix and index layout, so one stacked eigensolve serves all
    candidates (and, downstream, all grid energies).  The box at sigma u
    has G_{sigma u}(E; c, y) = G_u(E; c, sigma y) and a boundary closed
    under sigma, so it is singular exactly when its orbit's representative
    is."""

    centers: np.ndarray  # (ncand, 2d) candidate center coordinates
    poles: np.ndarray  # (nrep, n), one row per exchange orbit
    residues: np.ndarray  # (nrep, nb, n)
    orbit: np.ndarray  # (ncand,) row of each candidate's representative
    radius: int
    interactive: np.ndarray  # (ncand,) bool

    def mask(self, E: float | np.ndarray, m: float) -> np.ndarray:
        """``classify.singular_mask_at`` of every candidate at ``(E, m)``:
        ``(ncand,)`` for a scalar ``E``, ``(nE, ncand)`` for an array."""
        return singular_mask_at(self.poles, self.residues,
                                math.exp(-m * self.radius), E)[..., self.orbit]

    def singular_centers(
        self, E: float, m: float
    ) -> tuple[list[Point2], list[Point2]]:
        """Split candidate centers singular at (E, m) into (non-interactive,
        interactive) lists."""
        return _split_singular(self.centers, self.interactive, self.mask(E, m))


def _split_singular(
    centers: np.ndarray, interactive: np.ndarray, mask: np.ndarray
) -> tuple[list[Point2], list[Point2]]:
    """The ``mask``ed flat centers as (non-interactive, interactive) point
    lists, each in candidate order."""
    d = centers.shape[1] // 2
    sing_ni, sing_i = [], []
    for flat, inter in zip(centers[mask], interactive[mask]):
        c = Point2.of(flat[:d], flat[d:])
        (sing_i if inter else sing_ni).append(c)
    return sing_ni, sing_i


def _subbox_family(center: Point2, k: int, sched: ScaleSchedule,
                   samples: Sequence[DisorderSample], interaction: InteractionSpec,
                   g: float, adjacency: str):
    """The scale-k sub-boxes of the scale-(k+1) box at ``center``: flat
    centers ``(ncand, 2d)`` of all that fit inside it, whether each is
    interactive, the row of each one's exchange-orbit representative, and
    the representatives' ``family_stack`` under every sample
    (sample-major).  Raises ``OutOfDomainError`` unless every sample
    covers the parent's projections."""
    L_k, L_next = sched.L[k], sched.L[k + 1]
    parent = Box2(center, L_next)
    for sample in samples:
        check_projections(parent, sample)
    centers = Box2(center, L_next - L_k).points()
    d = center.d
    interactive = (np.abs(centers[:, :d] - centers[:, d:]).max(axis=1)
                   <= 2 * L_k + interaction.r0)
    reps, orbit = exchange_orbits(centers)
    stack = family_stack(centers[reps], L_k, samples, interaction, g, adjacency)
    return centers, interactive, orbit, stack


def subbox_spectra(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str,
) -> SubboxSpectra:
    """Poles and residues of one scale-k sub-box per exchange orbit of the
    candidates inside the scale-(k+1) box at ``center``, from one checked
    ``operators.eigh_stack``."""
    template = Box2.of_origin(center.d, sched.L[k])
    centers, interactive, orbit, stack = _subbox_family(center, k, sched, [sample],
                                                        interaction, g, adjacency)
    poles, residues = pole_residues(stack.matrices(), template.center_index(),
                                    template.boundary_indices())
    return SubboxSpectra(centers, poles, residues, orbit, template.radius, interactive)


def count_singular_subboxes(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    adjacency: str = "sup",
) -> CounterReport:
    """Classify every scale-k sub-box of the scale-(k+1) box at ``center``
    at ``(E, m_k)`` and compute the maximal pairwise-separated counts: the
    one-sample ``singular_subbox_counts``."""
    return singular_subbox_counts(center, k, sched, [sample], [E], interaction, g,
                                  adjacency)[0]


def singular_subbox_counts(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    samples: Sequence[DisorderSample],
    energies: Sequence[float],
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> list[CounterReport]:
    """``count_singular_subboxes`` under every sample at its energy.

    Candidate centers are all configurations whose sub-box fits inside the
    parent; interactivity is decided exactly per candidate.  One box per
    exchange orbit (``operators.exchange_orbits``) and sample is built, and
    it is decided at the sample's energy; images share their
    representative's verdict, as in ``SubboxSpectra``.

    A strictly dominant box is certified non-singular, below
    e^{-m_k L_k}, by ``resolvent.dominance_certified`` from its diagonal
    and |hop| alone; a certified box is one the solve would report below
    the threshold too, so the reports, which hold only verdicts, are
    those of the solve.  The other boxes' Green's columns are taken by
    stacked solves (``resolvent.boundary_green_maxima``).

    Their solver guard needs no spectrum: ``resolvent.window_clear``
    certifies each box at its ``resolvent.guard_width``.  Every
    ``eigvalsh`` gap of a certified box is at least that width, above the
    box's guard, so ``within_guard`` would not skip it either and the same
    boxes are solved; a box it cannot certify is diagonalized and guarded
    by its spectrum.
    """
    L_k = sched.L[k]
    template = Box2.of_origin(center.d, L_k)
    centers, interactive, orbit, stack = _subbox_family(center, k, sched, samples,
                                                        interaction, g, adjacency)
    E = np.repeat(np.asarray(energies, dtype=np.float64), len(stack) // len(samples))
    center_index, boundary = template.center_index(), template.boundary_indices()
    threshold = math.exp(-sched.m[k] * L_k)
    rest = np.flatnonzero(~dominance_certified(stack, E, center_index, boundary, threshold))
    sub, e = stack.take(rest), E[rest]
    values = np.zeros(len(stack))
    values[rest] = boundary_green_maxima(sub, spectra_unless_clear(sub, e, guard_width(sub, e)),
                                         center_index, boundary, e)[0]
    singular = values.reshape(len(samples), -1) > threshold
    sep = 8 * L_k
    reports = []
    for energy, mask in zip(energies, singular):
        sing_ni, sing_i = _split_singular(centers, interactive, mask[orbit])
        allc = sing_ni + sing_i
        M, wit_ni, _ = max_separated_subset(sing_ni, sep)
        N, wit_i, _ = max_separated_subset(sing_i, sep)
        K, wit_all, _ = max_separated_subset(allc, sep)
        reports.append(CounterReport(
            center=center.flat, k=k, energy=float(energy), mass=float(sched.m[k]),
            separation=sep, n_candidates=len(centers),
            singular_ni=[c.flat for c in sing_ni],
            singular_i=[c.flat for c in sing_i],
            M=M, N=N, K=K,
            witnesses_ni=[sing_ni[i].flat for i in wit_ni],
            witnesses_i=[sing_i[i].flat for i in wit_i],
            witnesses_all=[allc[i].flat for i in wit_all],
        ))
    return reports


@dataclass
class InductiveStepReport(Record):
    """One instance of the inductive step: a completely non-resonant parent
    with at most J separated singular sub-boxes must be non-singular at the
    next mass."""

    kind = "inductive_step"

    center: tuple[int, ...]
    k: int
    energy: float
    cnr_ok: bool
    K: int
    J: int
    counters_exact: bool  # always true, as ``CounterReport.exact``
    hypotheses_hold: bool
    skipped: bool
    mass_bound: float  # raw inductive bound; non-positive at desk scales
    assert_mass: Optional[float] = None
    ns_ok: Optional[bool] = None
    ns_margin: Optional[float] = None
    max_boundary_gf: Optional[float] = None


def inductive_ns_step(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    adjacency: str = "sup",
) -> InductiveStepReport:
    """Evaluate the hypotheses (complete non-resonance; K <= J) and, when
    they hold, assert non-singularity of the parent at the next mass: the
    one-sample ``inductive_ns_steps``."""
    return inductive_ns_steps(center, k, sched, [sample], [E], interaction, g, adjacency)[0]


def inductive_ns_steps(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    samples: Sequence[DisorderSample],
    energies: Sequence[float],
    interaction: InteractionSpec,
    g: float,
    adjacency: str = "sup",
) -> list[InductiveStepReport]:
    """``inductive_ns_step`` under every sample at its energy, decided
    stage by stage for all samples at once, so that each LAPACK call
    covers every sample and the geometry is built once:

    1. the counter's sub-box stacks (``singular_subbox_counts``, which
       also checks that every sample covers the parent's projections);
    2. the parents, one per sample, by ``resolvent.window_clear`` at the
       resonance width (or the guard width, if larger), and one
       ``eigvalsh`` over the parents it cannot certify;
    3. each CNR radius's sub-box families of every sample whose parent is
       not resonant (``classify.cnr_sweeps``);
    4. one non-singularity solve over the parents whose hypotheses hold.

    A certified parent is non-resonant and clear of the solver guard, so
    it is never diagonalized and is solved with no spectrum; an
    uncertified one is decided from its spectrum, as ``is_cnr`` and
    ``is_ns`` do.  Each report equals that of the sample decided alone:
    every stacked LAPACK call and matrix product treats each box on its
    own, and so does ``window_clear``.

    The asserted mass is the inductive bound when positive; at desk scales
    where the bound degenerates to a non-positive value the schedule's own
    next mass is asserted instead (it is smaller in the admissible regime,
    so the assertion is the meaningful one at every scale).
    """
    E = np.asarray(energies, dtype=np.float64)
    counters = singular_subbox_counts(center, k, sched, samples, E, interaction, g, adjacency)
    parent = Box2(center, sched.L[k + 1])
    parents = family_stack(np.array([center.flat]), parent.radius, samples, interaction,
                           g, adjacency)
    width = resonance_width(parent.radius, sched.beta)
    # a width above the guard certifies both non-resonance and the guard
    clear, spectra = spectra_unless_clear(parents, E, np.maximum(width, guard_width(parents, E)))
    gaps = np.full(len(samples), np.inf)
    gaps[~clear] = np.abs(spectra - E[~clear, None]).min(axis=1)
    cnr = cnr_sweeps(center, k, sched, samples, E, interaction, g, adjacency, gaps.tolist())
    bound = mass_step_value(sched.m[k], sched.L[k], sched.J)
    assert_mass = bound if bound > 0 else sched.m[k + 1]
    reports = [InductiveStepReport(
        center=center.flat, k=k, energy=float(e), cnr_ok=c.ok, K=n.K, J=sched.J,
        counters_exact=True, hypotheses_hold=c.ok and n.K <= sched.J,
        skipped=not (c.ok and n.K <= sched.J), mass_bound=float(bound),
    ) for e, c, n in zip(E, cnr, counters)]
    hold = np.array([rep.hypotheses_hold for rep in reports], dtype=bool)
    template = Box2.of_origin(center.d, parent.radius)
    values, _ = boundary_green_maxima(parents.take(hold), (clear[hold], spectra[hold[~clear]]),
                                      template.center_index(), template.boundary_indices(),
                                      E[hold])
    threshold = math.exp(-assert_mass * parent.radius)
    for i, value in zip(np.flatnonzero(hold), values):
        rep = reports[i]
        rep.assert_mass = float(assert_mass)
        rep.ns_ok = bool(value <= threshold)
        rep.max_boundary_gf = float(value)
        rep.ns_margin = float(threshold - value)
    return reports
