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

from .classify import CnrReport, is_cnr, is_ns
from .disorder import DisorderSample, InteractionSpec
from .errors import InfeasibleScheduleError, InvalidInputError
from .geometry import Box2, Point2
from .operators import assemble_two_particle, box_family, check_projections

#: above this many singular candidates the maximum-separated-subset search
#: falls back to a greedy lower bound and the report is marked inexact
EXACT_SUBSET_LIMIT = 40


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


def mass_step(m_k: float, L_k: int, J: int) -> float:
    """Lower bound for the next mass in the inductive step:
    ``m_k * (1 - (5J+6) / sqrt(2 L_k))``.

    Raises when the bound is non-positive, which happens at small scales;
    ``mass_step_value`` returns the raw value for reporting.
    """
    val = mass_step_value(m_k, L_k, J)
    if val <= 0:
        raise InfeasibleScheduleError(
            f"inductive mass bound non-positive at L_k={L_k} with J={J}"
        )
    return val


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

    def passed(self, name: str) -> bool:
        for c in self.checks:
            if c.name == name:
                return c.status == "pass"
        raise KeyError(name)

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


def max_separated_subset(
    centers: Sequence[Point2] | np.ndarray,
    min_separation: int,
    exact_limit: int = EXACT_SUBSET_LIMIT,
) -> tuple[int, list[int], bool]:
    """Largest subset of centers that are pairwise separated by more than
    ``min_separation`` in the exchange-symmetrised metric.  ``centers`` are
    points or an ``(n, 2d)`` integer array of flat centers.

    Exact branch-and-bound up to ``exact_limit`` candidates (the inductive
    step needs the true maximum for its 'K <= J' decisions); a greedy lower
    bound with ``exact=False`` beyond that.
    Returns (size, chosen indices, exact flag).
    """
    n = len(centers)
    if n == 0:
        return 0, [], True
    from .kernels import pairwise_dist

    if isinstance(centers, np.ndarray):
        flat = centers.astype(np.int64, copy=False)
    else:
        flat = np.array([c.flat for c in centers], dtype=np.int64)
    d = flat.shape[1] // 2
    swapped = np.hstack([flat[:, d:], flat[:, :d]])
    direct = pairwise_dist(flat, flat, "sup")
    mirror = pairwise_dist(swapped, flat, "sup")
    conflict = np.minimum(direct, mirror) <= min_separation
    np.fill_diagonal(conflict, False)
    if n > exact_limit:
        order = np.argsort(conflict.sum(axis=1))
        chosen: list[int] = []
        for i in order:
            if all(not conflict[i, j] for j in chosen):
                chosen.append(int(i))
        return len(chosen), sorted(chosen), False

    best: list[int] = []

    def extend(cand: list[int], chosen: list[int]):
        nonlocal best
        if len(chosen) + len(cand) <= len(best):
            return
        if not cand:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        i = cand[0]
        rest = cand[1:]
        # include i
        extend([j for j in rest if not conflict[i, j]], chosen + [i])
        # exclude i
        extend(rest, chosen)

    extend(list(range(n)), [])
    return len(best), sorted(best), True


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
    exact: bool

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
    """Batched eigendecompositions of every scale-k sub-box of a parent
    box.  Translated sub-boxes share the hopping matrix and index layout,
    so one stacked eigensolve serves all candidates (and, downstream, all
    grid energies)."""

    centers: np.ndarray  # (ncand, 2d) candidate center coordinates
    eigenvalues: np.ndarray  # (ncand, n)
    eigenvectors: np.ndarray  # (ncand, n, n)
    center_index: int
    boundary_indices: np.ndarray
    radius: int
    interactive: np.ndarray  # (ncand,) bool

    def singular_centers(
        self, E: float, m: float
    ) -> tuple[list[Point2], list[Point2]]:
        """Split candidate centers singular at (E, m) into (non-interactive,
        interactive) lists."""
        from .classify import singular_mask_at

        mask = singular_mask_at(
            self.eigenvalues, self.eigenvectors, self.center_index,
            self.boundary_indices, self.radius, E, m,
        )
        d = self.centers.shape[1] // 2
        sing_ni, sing_i = [], []
        for flat, inter in zip(self.centers[mask], self.interactive[mask]):
            c = Point2.of(flat[:d], flat[d:])
            (sing_i if inter else sing_ni).append(c)
        return sing_ni, sing_i


def subbox_spectra(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    adjacency: str,
) -> SubboxSpectra:
    L_k, L_next = sched.L[k], sched.L[k + 1]
    d = center.d
    template = Box2.of_origin(d, L_k)
    centers = Box2(center, L_next - L_k).points()
    ev, q = np.linalg.eigh(box_family(centers, L_k, sample, interaction, g, adjacency))
    interactive = (
        np.abs(centers[:, :d] - centers[:, d:]).max(axis=1)
        <= 2 * L_k + interaction.r0
    )
    return SubboxSpectra(
        centers=centers, eigenvalues=ev, eigenvectors=q,
        center_index=template.center_index(),
        boundary_indices=template.boundary_indices(),
        radius=L_k, interactive=interactive,
    )


def count_singular_subboxes(
    center: Point2,
    k: int,
    sched: ScaleSchedule,
    sample: DisorderSample,
    interaction: InteractionSpec,
    g: float,
    E: float,
    adjacency: str = "sup",
    exact_limit: int = EXACT_SUBSET_LIMIT,
) -> CounterReport:
    """Classify every scale-k sub-box of the scale-(k+1) box at ``center``
    at ``(E, m_k)`` and compute the maximal pairwise-separated counts.

    Candidate centers are all configurations whose sub-box fits inside the
    parent; interactivity is decided exactly per candidate.
    """
    L_k, L_next = sched.L[k], sched.L[k + 1]
    # the parent's projections must be sampled; candidates stay inside it
    check_projections(Box2(center, L_next), sample)
    spectra = subbox_spectra(center, k, sched, sample, interaction, g, adjacency)
    sing_ni, sing_i = spectra.singular_centers(E, sched.m[k])
    offsets_count = len(spectra.centers)
    sep = 8 * L_k
    M, wit_ni, exact_m = max_separated_subset(sing_ni, sep, exact_limit)
    N, wit_i, exact_n = max_separated_subset(sing_i, sep, exact_limit)
    K, wit_all, exact_k = max_separated_subset(sing_ni + sing_i, sep, exact_limit)
    allc = sing_ni + sing_i
    return CounterReport(
        center=center.flat, k=k, energy=float(E), mass=float(sched.m[k]),
        separation=sep, n_candidates=offsets_count,
        singular_ni=[c.flat for c in sing_ni],
        singular_i=[c.flat for c in sing_i],
        M=M, N=N, K=K,
        witnesses_ni=[sing_ni[i].flat for i in wit_ni],
        witnesses_i=[sing_i[i].flat for i in wit_i],
        witnesses_all=[allc[i].flat for i in wit_all],
        exact=exact_m and exact_n and exact_k,
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
    counters_exact: bool
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
    cnr: Optional[CnrReport] = None,
    counters: Optional[CounterReport] = None,
) -> InductiveStepReport:
    """Evaluate the hypotheses (complete non-resonance; K <= J) and, when
    they hold, assert non-singularity of the parent at the next mass.

    The asserted mass is the inductive bound when positive; at desk scales
    where the bound degenerates to a non-positive value the schedule's own
    next mass is asserted instead (it is smaller in the admissible regime,
    so the assertion is the meaningful one at every scale).
    """
    parent = Box2(center, sched.L[k + 1])
    parent_op = None
    if cnr is None:
        parent_op = assemble_two_particle(parent, sample, interaction, g, adjacency)
        cnr = is_cnr(center, k, sched, sample, interaction, g, E, adjacency,
                     parent_op=parent_op)
    if counters is None:
        counters = count_singular_subboxes(center, k, sched, sample, interaction,
                                           g, E, adjacency)
    hyp = cnr.ok and counters.K <= sched.J
    bound = mass_step_value(sched.m[k], sched.L[k], sched.J)
    rep = InductiveStepReport(
        center=center.flat, k=k, energy=float(E), cnr_ok=cnr.ok,
        K=counters.K, J=sched.J, counters_exact=counters.exact,
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
