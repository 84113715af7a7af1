"""Scale/mass recursion, parameter constraints, sub-box singularity
counters, and the deterministic inductive non-singularity step.

The scale sequence is ``L_k = ceil(L0 ** (alpha ** k))`` and the mass
sequence ``m_k = m0 * prod_{j<=k} (1 - gamma * L_j ** -0.5)``; a schedule is
rejected when any requested mass fails to be positive.  The counters M/N/K
count maximal families of pairwise well-separated singular sub-boxes
(non-interactive, interactive, and all, respectively), where separation is
the exchange-symmetrised center distance exceeding ``8 * L_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .classify import is_cnr, is_ns, singular_mask_at
from .disorder import DisorderSample, InteractionSpec
from .errors import InfeasibleScheduleError, InvalidInputError
from .geometry import Box2, Point2
from .operators import (
    assemble_two_particle,
    box_family,
    check_projections,
    exchange_orbits,
    pole_residues,
)
from .resolvent import boundary_green_maxima


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

    def to_dict(self) -> dict:
        return {
            "L0": self.L0, "alpha": self.alpha, "gamma": self.gamma,
            "m0": self.m0, "beta": self.beta, "p": self.p, "q": self.q,
            "r0": self.r0, "g": self.g, "J": self.J, "d": self.d,
            "k_max": self.k_max, "preset": self.preset,
            "L": list(self.L), "m": list(self.m), "p_tilde": self.p_tilde,
            "rounding": self.rounding,
        }


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


def desk_schedule(
    L0: int = 3, m0: float = 0.5, g: float = 30.0, d: int = 1, k_max: int = 2,
    **kw,
) -> ScaleSchedule:
    """Small-scale preset for desk experiments; deliberately outside the
    large-L parameter regime and labelled as such."""
    kw.setdefault("gamma", 1.0)
    kw.setdefault("alpha", 1.5)
    kw.setdefault("p", 2.0)
    kw.setdefault("q", 8.0)
    return schedule(L0, kw.pop("alpha"), kw.pop("gamma"), m0, k_max,
                    g=g, d=d, preset="desk", **kw)


def asymptotic_schedule(k_max: int = 2, **kw) -> ScaleSchedule:
    """Preset satisfying all structural parameter constraints (large L0)."""
    kw.setdefault("L0", 10_000)
    kw.setdefault("alpha", 1.5)
    kw.setdefault("gamma", 40.0)
    kw.setdefault("m0", 1.0)
    kw.setdefault("p", 22.0)
    kw.setdefault("q", 101.0)
    kw.setdefault("d", 1)
    kw.setdefault("p_tilde", 160.0)
    return schedule(kw.pop("L0"), kw.pop("alpha"), kw.pop("gamma"), kw.pop("m0"),
                    k_max, preset="asymptotic", **kw)


def mass_step_value(m_k: float, L_k: int, J: int) -> float:
    return m_k * (1.0 - (5 * J + 6) / math.sqrt(2.0 * L_k))


@dataclass
class ConstraintCheck:
    name: str
    detail: str
    status: str  # "pass" | "fail" | "skipped"


@dataclass
class ParameterReport:
    checks: list[ConstraintCheck]
    asymptotic_regime: bool

    def to_record(self) -> dict:
        return {
            "kind": "parameter_report",
            "asymptotic_regime": self.asymptotic_regime,
            "checks": [
                {"name": c.name, "detail": c.detail, "status": c.status}
                for c in self.checks
            ],
        }


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
        s = (sched.p_tilde - 2 * (1 + a) * d) / a
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
class CounterReport:
    """Maximal pairwise-separated singular sub-box counts inside a parent
    box: M over non-interactive, N over interactive, K over all."""

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

    def to_record(self) -> dict:
        return {
            "kind": "counter_report",
            "center": list(self.center), "k": self.k, "energy": self.energy,
            "mass": self.mass, "separation": self.separation,
            "n_candidates": self.n_candidates,
            "singular_ni": [list(c) for c in self.singular_ni],
            "singular_i": [list(c) for c in self.singular_i],
            "M": self.M, "N": self.N, "K": self.K,
            "witnesses_ni": [list(c) for c in self.witnesses_ni],
            "witnesses_i": [list(c) for c in self.witnesses_i],
            "witnesses_all": [list(c) for c in self.witnesses_all],
            "exact": self.exact,
        }


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
                   sample: DisorderSample, interaction: InteractionSpec, g: float,
                   adjacency: str):
    """The scale-k sub-boxes of the scale-(k+1) box at ``center``: flat
    centers ``(ncand, 2d)`` of all that fit inside it, whether each is
    interactive, the row of each one's exchange-orbit representative, and
    the representatives' ``box_family``.  Raises ``OutOfDomainError`` unless
    the sample covers the parent's projections."""
    L_k, L_next = sched.L[k], sched.L[k + 1]
    check_projections(Box2(center, L_next), sample)
    centers = Box2(center, L_next - L_k).points()
    d = center.d
    interactive = (np.abs(centers[:, :d] - centers[:, d:]).max(axis=1)
                   <= 2 * L_k + interaction.r0)
    reps, orbit = exchange_orbits(centers)
    h = box_family(centers[reps], L_k, sample, interaction, g, adjacency)
    return centers, interactive, orbit, h


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
    centers, interactive, orbit, h = _subbox_family(center, k, sched, sample,
                                                    interaction, g, adjacency)
    poles, residues = pole_residues(h, template.center_index(), template.boundary_indices())
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
    at ``(E, m_k)`` and compute the maximal pairwise-separated counts.

    Candidate centers are all configurations whose sub-box fits inside the
    parent; interactivity is decided exactly per candidate.  One box per
    exchange orbit (``operators.exchange_orbits``) is assembled, its
    spectrum taken by a stacked ``eigvalsh`` for the solver guard, and its
    Green's column at E by one stacked solve
    (``resolvent.boundary_green_maxima``); images share their
    representative's verdict, as in ``SubboxSpectra``.
    """
    L_k = sched.L[k]
    template = Box2.of_origin(center.d, L_k)
    centers, interactive, orbit, h = _subbox_family(center, k, sched, sample,
                                                    interaction, g, adjacency)
    values, _ = boundary_green_maxima(h, np.linalg.eigvalsh(h), template.center_index(),
                                      template.boundary_indices(), E)
    singular = values > math.exp(-sched.m[k] * L_k)
    sing_ni, sing_i = _split_singular(centers, interactive, singular[orbit])
    offsets_count = len(centers)
    sep = 8 * L_k
    allc = sing_ni + sing_i
    M, wit_ni, _ = max_separated_subset(sing_ni, sep)
    N, wit_i, _ = max_separated_subset(sing_i, sep)
    K, wit_all, _ = max_separated_subset(allc, sep)
    return CounterReport(
        center=center.flat, k=k, energy=float(E), mass=float(sched.m[k]),
        separation=sep, n_candidates=offsets_count,
        singular_ni=[c.flat for c in sing_ni],
        singular_i=[c.flat for c in sing_i],
        M=M, N=N, K=K,
        witnesses_ni=[sing_ni[i].flat for i in wit_ni],
        witnesses_i=[sing_i[i].flat for i in wit_i],
        witnesses_all=[allc[i].flat for i in wit_all],
    )


@dataclass
class InductiveStepReport:
    """One instance of the inductive step: a completely non-resonant parent
    with at most J separated singular sub-boxes must be non-singular at the
    next mass."""

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

    def to_record(self) -> dict:
        from dataclasses import asdict

        rec = asdict(self)
        rec["kind"] = "inductive_step"
        rec["center"] = list(self.center)
        return rec


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
    they hold, assert non-singularity of the parent at the next mass.

    The asserted mass is the inductive bound when positive; at desk scales
    where the bound degenerates to a non-positive value the schedule's own
    next mass is asserted instead (it is smaller in the admissible regime,
    so the assertion is the meaningful one at every scale).
    """
    parent = Box2(center, sched.L[k + 1])
    parent_op = assemble_two_particle(parent, sample, interaction, g, adjacency)
    cnr = is_cnr(center, k, sched, sample, interaction, g, E, adjacency,
                 parent_op=parent_op)
    counters = count_singular_subboxes(center, k, sched, sample, interaction,
                                       g, E, adjacency)
    hyp = cnr.ok and counters.K <= sched.J
    bound = mass_step_value(sched.m[k], sched.L[k], sched.J)
    rep = InductiveStepReport(
        center=center.flat, k=k, energy=float(E), cnr_ok=cnr.ok,
        K=counters.K, J=sched.J, counters_exact=True,
        hypotheses_hold=hyp, skipped=not hyp, mass_bound=float(bound),
    )
    if not hyp:
        return rep
    assert_mass = bound if bound > 0 else sched.m[k + 1]
    ns, w = is_ns(parent, sample, interaction, g, E, assert_mass, adjacency,
                  op=parent_op)
    rep.assert_mass = float(assert_mass)
    rep.ns_ok = bool(ns)
    rep.max_boundary_gf = w.max_boundary_gf
    rep.ns_margin = float(w.threshold - w.max_boundary_gf)
    return rep
