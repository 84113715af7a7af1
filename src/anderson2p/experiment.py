"""Monte Carlo estimation of the probabilistic box properties and
effective-mass extraction from eigenvector decay.

Each trial derives its disorder sample and box placement deterministically
from ``(seed, trial index, event kind)``, so estimates reproduce
bit-identically and trials are order-independent.  Resonance-type events
are decided exactly through eigenvalue windows (``classify.windows_meet``
for the "exists E" ones, over the interval); singularity-type events are
decided on a recorded energy grid over the interval (their
Green's-function character admits no exact continuum test), so their
'exists E' frequencies are lower bounds.  Reference power-law bounds are
recorded next to each estimate but never asserted at desk scales.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .blas import ordered_map
from .classify import (
    energy_grid,
    exists_resonant_pair,
    is_nontunnelling,
    is_resonant,
    not_cnr_windows,
    singular_mask_at,
    windows_meet,
)
from .disorder import (
    DisorderSample,
    DistributionSpec,
    InteractionSpec,
    domain_for_boxes,
    sample_potential,
)
from .errors import InvalidInputError, PlacementError
from .geometry import (
    Box1,
    Box2,
    Point2,
    is_interactive,
    pair_separation,
    projections,
)
from .kernels import shell_max
from .msa import ScaleSchedule, max_separated_subset
from .operators import (
    FiniteOperator,
    assemble_two_particle,
    box_family,
    check_projections,
    diagonalize,
    pole_residues,
)
from .records import Record

_MAX_PLACEMENT_ATTEMPTS = 10_000


@dataclass(frozen=True)
class EventSpec:
    """One estimable event: a kind plus its scale, energy data, and
    placement parameters.  Every kind maps to exactly one classifier
    composition, its row of ``EVENTS``."""

    kind: str
    k: int = 0
    interval: Optional[tuple[float, float]] = None
    energy: Optional[float] = None
    mass: Optional[float] = None
    n: int = 1
    region: Optional[int] = None
    adjacency: str = "sup"
    grid_spacing: Optional[float] = None

    def __post_init__(self):
        if self.kind not in EVENTS:
            raise InvalidInputError(f"unknown event kind: {self.kind!r}")
        if EVENTS[self.kind].counter and self.n < 1:
            raise InvalidInputError(f"{self.kind} needs n >= 1, got {self.n}")


# The 97.5% standard normal quantile, the double that
# ``scipy.stats.norm.ppf(0.975)`` returns; ``statistics.NormalDist``
# gives 1.9599639845400536, one ulp away, which would change the bytes
# of every ``wilson_*`` field.
_Z_975 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; well behaved
    for small counts and at the 0/1 endpoints.  The quantile is the
    constant ``_Z_975``, so computing an interval loads no scipy module."""
    if trials <= 0:
        raise InvalidInputError("Wilson interval needs at least one trial")
    z = _Z_975
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class EstimateRecord(Record):
    """A Monte Carlo frequency with its confidence interval, reference
    bound, and provenance.  It holds no timing, so emitted records stay
    byte-reproducible; the run manifest times the run."""

    kind = "estimate"

    event: EventSpec
    trials: int
    successes: int
    estimate: float
    wilson_low: float
    wilson_high: float
    seed: int
    grid_delta: Optional[float] = None
    bound_name: Optional[str] = None
    bound_value: Optional[float] = None
    comparison: str = "n/a"  # pass | fail | indeterminate | n/a


# ---------------------------------------------------------------------------
# placement


def _stream_rng(seed: int, trial: int, tag: str) -> Generator:
    tag_hash = 0
    for ch in tag:
        tag_hash = (tag_hash * 131 + ord(ch)) & 0xFFFFFFFF
    key = np.array([(seed ^ (tag_hash << 16)) & (2**64 - 1), trial & (2**64 - 1)],
                   dtype=np.uint64)
    return Generator(Philox(key=key))


def _draw_center(rng, d: int, half_width: int) -> Point2:
    c = rng.integers(-half_width, half_width + 1, size=2 * d)
    return Point2.of(c[:d], c[d:])


def _draw_interactive_center(rng, d: int, half_width: int, L: int, r0: int) -> Point2:
    u1 = rng.integers(-half_width, half_width + 1, size=d)
    delta = rng.integers(-(2 * L + r0), 2 * L + r0 + 1, size=d)
    return Point2.of(u1, u1 + delta)


def _draw_ni_center(rng, d: int, half_width: int, L: int, r0: int) -> Point2:
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        c = _draw_center(rng, d, half_width)
        if not is_interactive(Box2(c, L), r0):
            return c
    raise PlacementError("could not place a non-interactive box in the region")


def _draw_separated(
    rng, d: int, half_width: int, min_sep: int,
    interactive_layer: Optional[tuple[int, int]] = None,
) -> tuple[Point2, Point2]:
    """Draw a pair of centers with exchange-symmetrised separation
    exceeding ``min_sep``; ``interactive_layer = (L, r0)`` restricts both
    centers to the interactive layer for boxes of radius L and range r0."""
    if 2 * 2 * half_width <= min_sep:
        raise PlacementError(
            f"region half-width {half_width} cannot realize separation {min_sep}"
        )
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        if interactive_layer:
            u = _draw_interactive_center(rng, d, half_width, *interactive_layer)
            v = _draw_interactive_center(rng, d, half_width, *interactive_layer)
        else:
            u = _draw_center(rng, d, half_width)
            v = _draw_center(rng, d, half_width)
        if pair_separation(u, v) > min_sep:
            return u, v
    raise PlacementError(
        f"no pair with separation > {min_sep} found in {_MAX_PLACEMENT_ATTEMPTS} draws"
    )


# ---------------------------------------------------------------------------
# grid-sweep helpers on spectral data


def _grid_singular(boxes: Sequence[Box2], sample: DisorderSample,
                   interaction: InteractionSpec, g: float, adjacency: str,
                   grid: np.ndarray, m: float) -> np.ndarray:
    """``(len(grid), len(boxes))`` singularity mask of two-particle boxes of
    one radius over the grid, from one ``box_family`` and its poles and
    residues; resonant energies (within the solver guard) count as
    singular."""
    for box in boxes:
        check_projections(box, sample)
    template = Box2.of_origin(boxes[0].d, boxes[0].radius)
    h = box_family(np.array([box.center.flat for box in boxes]), template.radius,
                   sample, interaction, g, adjacency)
    poles, residues = pole_residues(h, template.center_index(),
                                    template.boundary_indices())
    return singular_mask_at(poles, residues, math.exp(-m * template.radius), grid)


# ---------------------------------------------------------------------------
# per-trial event evaluation


def _require_interval(spec: EventSpec) -> tuple[float, float]:
    if spec.interval is None:
        raise InvalidInputError(f"event {spec.kind} needs an energy interval")
    return spec.interval


def _energy_grid(spec: EventSpec, sched: ScaleSchedule) -> np.ndarray:
    """The energy grid of a grid event, at the scale ``EVENTS`` gives it."""
    return energy_grid(_require_interval(spec), sched.L[spec.k + EVENTS[spec.kind].grid],
                       sched.beta, spec.grid_spacing)


def _region(spec: EventSpec, default: int) -> int:
    """Half-width of the placement region: the spec's, else ``default``."""
    return spec.region if spec.region is not None else default


def _trial_sample(
    dist: DistributionSpec, seed: int, trial: int, boxes: Sequence[Box2 | Box1]
) -> DisorderSample:
    return sample_potential(dist, seed, trial, domain_for_boxes(boxes))


@dataclass
class _TrialContext:
    sched: ScaleSchedule
    dist: DistributionSpec
    interaction: InteractionSpec
    seed: int


def _eval_single_box_singular(spec, ctx: _TrialContext, trial: int) -> bool:
    sched = ctx.sched
    L = sched.L[spec.k]
    m = spec.mass if spec.mass is not None else sched.m[spec.k]
    box = Box2.of_origin(sched.d, L)
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [box])
    return bool(_grid_singular([box], sample, ctx.interaction, sched.g,
                               spec.adjacency, _energy_grid(spec, sched), m).any())


def _eval_pair_singular(spec, ctx, trial, interactive_only=False) -> bool:
    sched = ctx.sched
    L = sched.L[spec.k]
    m = spec.mass if spec.mass is not None else sched.m[spec.k]
    rng = _stream_rng(ctx.seed, trial, spec.kind)
    layer = (L, ctx.interaction.r0) if interactive_only else None
    u, v = _draw_separated(
        rng, sched.d, _region(spec, 12 * L + 16), 8 * L,
        interactive_layer=layer,
    )
    boxes = [Box2(u, L), Box2(v, L)]
    sample = _trial_sample(ctx.dist, ctx.seed, trial, boxes)
    return bool(_grid_singular(boxes, sample, ctx.interaction, sched.g, spec.adjacency,
                               _energy_grid(spec, sched), m).all(axis=1).any())


def _eval_resonant_at_energy(spec, ctx, trial) -> bool:
    sched = ctx.sched
    L = sched.L[spec.k]
    if spec.energy is None:
        raise InvalidInputError("resonant_at_energy needs a fixed energy")
    box = Box2.of_origin(sched.d, L)
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [box])
    op = assemble_two_particle(box, sample, ctx.interaction, sched.g, spec.adjacency)
    return is_resonant(op.eigenvalues(), spec.energy, L, sched.beta)[0]


def _eval_pair_resonant(spec, ctx, trial, fixed_energy=False) -> bool:
    sched = ctx.sched
    L = sched.L[spec.k]
    rng = _stream_rng(ctx.seed, trial, spec.kind)
    u, v = _draw_separated(rng, sched.d, _region(spec, 40 * L + 40), 64 * L)
    b1, b2 = Box2(u, L), Box2(v, L)
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [b1, b2])
    ev1 = assemble_two_particle(b1, sample, ctx.interaction, sched.g,
                                spec.adjacency).eigenvalues()
    ev2 = assemble_two_particle(b2, sample, ctx.interaction, sched.g,
                                spec.adjacency).eigenvalues()
    if fixed_energy:
        if spec.energy is None:
            raise InvalidInputError("both_resonant_at_energy needs a fixed energy")
        return all(is_resonant(ev, spec.energy, L, sched.beta)[0] for ev in (ev1, ev2))
    hit, _ = exists_resonant_pair(ev1, ev2, spec.interval, L, sched.beta)
    return hit


def _eval_single_particle_tunnelling(spec, ctx, trial) -> bool:
    sched = ctx.sched
    L = sched.L[spec.k]
    m = spec.mass if spec.mass is not None else 2.0 * sched.m0
    box = Box1.of_origin(sched.d, L)
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [box])
    ok, _ = is_nontunnelling(box, sample, sched.g, m, spec.adjacency)
    return not ok


def _eval_counter(spec, ctx, trial) -> bool:
    """'Some grid energy makes the separated-singular-sub-box counter reach
    its threshold' inside a scale-(k+1) box at the origin.

    One mask (``SubboxSpectra.mask``, from one eigensolve per exchange
    orbit) decides every (sub-box, grid energy) pair, and the exact
    subset search runs once per distinct singular set.  The count does not
    depend on the order of the candidates; they keep the order of
    ``count_singular_subboxes`` (non-interactive first for K), which the
    per-energy oracle test pins."""
    from .msa import subbox_spectra

    sched = ctx.sched
    k, n = spec.k, spec.n
    L_k, L_next = sched.L[k], sched.L[k + 1]
    m = spec.mass if spec.mass is not None else sched.m[k]
    parent = Box2.of_origin(sched.d, L_next)
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [parent])
    spectra = subbox_spectra(parent.center, k, sched, sample, ctx.interaction,
                             sched.g, spec.adjacency)
    which = EVENTS[spec.kind].counter
    threshold = {"M": max(2, n), "N": 2 * n, "K": 2 * n + 2}[which]
    masks = spectra.mask(_energy_grid(spec, sched), m)
    inter = spectra.interactive
    pool = {"M": np.flatnonzero(~inter), "N": np.flatnonzero(inter),
            "K": np.argsort(inter, kind="stable")}[which]
    counts: dict[bytes, int] = {}
    for row in masks[:, pool]:
        key = row.tobytes()
        if key not in counts:
            counts[key], _, _ = max_separated_subset(spectra.centers[pool[row]],
                                                     8 * L_k)
        if counts[key] >= threshold:
            return True
    return False


def _eval_mixed_pair(spec, ctx, trial) -> dict[str, bool]:
    """Joint evaluation of the mixed-pair decomposition events at scale
    k+1: both boxes singular (over the grid); a projection of the
    non-interactive box tunnelling; neither box completely non-resonant
    (exact windows); and the residual of the first minus the other two."""
    sched = ctx.sched
    k = spec.k
    L_next = sched.L[k + 1]
    m_next = spec.mass if spec.mass is not None else sched.m[k + 1]
    rng = _stream_rng(ctx.seed, trial, "mixed_pair")
    half = _region(spec, 12 * L_next + 16)
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        u = _draw_interactive_center(rng, sched.d, half, L_next, ctx.interaction.r0)
        v = _draw_ni_center(rng, sched.d, half, L_next, ctx.interaction.r0)
        if pair_separation(u, v) > 8 * L_next:
            break
    else:
        raise PlacementError("could not place a separated mixed pair")
    bx, by = Box2(u, L_next), Box2(v, L_next)
    # domain must cover CNR sub-boxes also, which stay inside the parents
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [bx, by])
    interval = _require_interval(spec)
    grid = energy_grid(interval, L_next, sched.beta, spec.grid_spacing)
    b_event = bool(_grid_singular([bx, by], sample, ctx.interaction, sched.g,
                                  spec.adjacency, grid, m_next).all(axis=1).any())
    p1, p2 = projections(by)
    ok1, _ = is_nontunnelling(p1, sample, sched.g, 2.0 * sched.m0, spec.adjacency)
    ok2, _ = is_nontunnelling(p2, sample, sched.g, 2.0 * sched.m0, spec.adjacency)
    t_event = (not ok1) or (not ok2)
    wx = not_cnr_windows(u, k, sched, sample, ctx.interaction, sched.g, spec.adjacency)
    wy = not_cnr_windows(v, k, sched, sample, ctx.interaction, sched.g, spec.adjacency)
    sigma_event = windows_meet(wx, wy, interval) is not None
    return {
        "mixed_pair_singular": b_event,
        "ni_projection_tunnelling": t_event,
        "neither_box_cnr": sigma_event,
        "mixed_pair_residual": b_event and not t_event and not sigma_event,
    }


@dataclass(frozen=True)
class EventKind:
    """Everything the estimator and the CLI know about one event kind."""

    #: ``(spec, ctx, trial)`` -> the trial's verdict, or, where one
    #: evaluation decides several kinds, the verdict of each by kind
    evaluate: Callable
    #: reads the configured energy interval
    interval: bool
    #: reads scale k + 1 as well as scale k
    next_scale: bool = False
    #: scale, as an offset from k, of the energy grid whose spacing the
    #: record reports as ``grid_delta``; None: no ``grid_delta``
    grid: Optional[int] = None
    #: the counter whose threshold the event tests: "M", "N" or "K"
    counter: Optional[str] = None
    #: the label of the reference bound ``L_j^-label`` (``_EXPONENTS``), at
    #: j = k + 1 for a row that reads scale k + 1; None: the counter's
    #: bound, or none
    bound: Optional[str] = None


#: every event kind, in the order the documentation lists them; the
#: positional fields are (evaluate, interval, next_scale, grid, counter,
#: bound)
EVENTS = {
    "single_box_singular": EventKind(_eval_single_box_singular, True, grid=0, bound="2p"),
    "pair_singular": EventKind(_eval_pair_singular, True, grid=0, bound="2p"),
    "interactive_pair_singular": EventKind(
        functools.partial(_eval_pair_singular, interactive_only=True), True, grid=0,
        bound="2p"),
    "resonant_at_energy": EventKind(_eval_resonant_at_energy, False, bound="q"),
    "pair_resonant": EventKind(_eval_pair_resonant, True, bound="q"),
    "both_resonant_at_energy": EventKind(
        functools.partial(_eval_pair_resonant, fixed_energy=True), False, bound="q"),
    "single_particle_tunnelling": EventKind(_eval_single_particle_tunnelling, False,
                                            bound="s"),
    "ni_counter_at_least": EventKind(_eval_counter, True, True, 0, "M"),
    "interactive_counter_at_least": EventKind(_eval_counter, True, True, 0, "N"),
    "total_counter_at_least": EventKind(_eval_counter, True, True, 0, "K"),
    "mixed_pair_singular": EventKind(_eval_mixed_pair, True, True, grid=1, bound="2p"),
    "ni_projection_tunnelling": EventKind(_eval_mixed_pair, True, True, bound="s"),
    "neither_box_cnr": EventKind(_eval_mixed_pair, True, True, bound="(q/alpha-4)"),
    "mixed_pair_residual": EventKind(_eval_mixed_pair, True, True, grid=1),
}
EVENT_KINDS = tuple(EVENTS)

#: the kinds each compound ``mc-estimate`` mode estimates: ``ss-probe``
#: counts the mixed-pair decomposition from one evaluation per trial, and
#: ``g-trend`` estimates its kind once per coupling
MODE_KINDS = {
    "ss-probe": tuple(kind for kind, row in EVENTS.items()
                      if row.evaluate is _eval_mixed_pair),
    "g-trend": ("single_box_singular",),
}


def evaluate_event(spec: EventSpec, ctx: _TrialContext, trial: int) -> dict[str, bool]:
    """Verdicts of one trial by kind: ``{spec.kind: hit}``, or, for a
    mixed-pair kind, the four kinds its one evaluation decides."""
    hit = EVENTS[spec.kind].evaluate(spec, ctx, trial)
    return hit if isinstance(hit, dict) else {spec.kind: hit}


def _grid_delta(spec: EventSpec, sched: ScaleSchedule) -> Optional[float]:
    if EVENTS[spec.kind].grid is None or spec.interval is None:
        return None
    grid = _energy_grid(spec, sched)
    return float(grid[1] - grid[0])


#: the exponent of each power-law reference bound ``L^-label``, by label
_EXPONENTS = {
    "2p": lambda sched: 2 * sched.p,
    "q": lambda sched: sched.q,
    "s": lambda sched: sched.single_particle_exponent,
    "(q/alpha-4)": lambda sched: sched.q / sched.alpha - 4,
}


def _reference_bound(spec: EventSpec,
                     sched: ScaleSchedule) -> tuple[Optional[str], Optional[float]]:
    """The power-law reference value of the spec's ``EVENTS`` row, printed
    next to its estimate; none where it needs an unset ``p_tilde``."""
    row = EVENTS[spec.kind]
    if row.counter:
        L, d, a, n = float(sched.L[spec.k]), sched.d, sched.alpha, spec.n
        ni = None if sched.p_tilde is None else L ** (4 * d * a) * L ** (-2 * sched.p_tilde)
        inter = L ** (2 * n * (1 + d * a)) * L ** (-2 * n * sched.p)
        name, value = {"M": ("count_bound_ni", ni), "N": ("count_bound_i", inter),
                       "K": ("count_bound_total", inter if ni is None else inter + ni),
                       }[row.counter]
        return (None, None) if value is None else (name, value)
    exponent = _EXPONENTS[row.bound](sched) if row.bound else None
    if exponent is None:
        return None, None
    j = spec.k + 1 if row.next_scale else spec.k
    return f"L_{j}^-{row.bound}", float(sched.L[j]) ** (-exponent)


def _finish_record(spec, sched, trials, successes, seed) -> EstimateRecord:
    est = successes / trials
    lo, hi = wilson_interval(successes, trials)
    name, bound = _reference_bound(spec, sched)
    if bound is None:
        cmp_ = "n/a"
    elif hi <= bound:
        cmp_ = "pass"
    elif lo > bound:
        cmp_ = "fail"
    else:
        cmp_ = "indeterminate"
    return EstimateRecord(
        event=spec, trials=trials, successes=successes, estimate=est,
        wilson_low=lo, wilson_high=hi, seed=seed,
        grid_delta=_grid_delta(spec, sched),
        bound_name=name, bound_value=bound, comparison=cmp_,
    )


def estimate_event(
    specs: Sequence[EventSpec],
    sched: ScaleSchedule,
    trials: int,
    seed: int,
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
) -> list[EstimateRecord]:
    """Monte Carlo estimates of the events ``specs``, each with a Wilson
    95% interval, counted from one pass over the trials; deterministic
    given (seed, specs, schedule, trials).  The specs differ only in kind,
    and one evaluation of the first decides them all: one kind, or the
    mixed-pair kinds.  Trials run on ``blas.ordered_map``'s workers; each
    is a pure function of ``(seed, trial)``, so the records do not depend
    on the worker count."""
    if trials <= 0:
        raise InvalidInputError("at least one trial is required")
    if not specs or any(replace(spec, kind=specs[0].kind) != specs[0] for spec in specs):
        raise InvalidInputError("events estimated in one pass must differ only in kind")
    ctx = _TrialContext(
        sched=sched,
        dist=dist or DistributionSpec.uniform(),
        interaction=interaction or InteractionSpec.triangular(sched.r0),
        seed=seed,
    )
    hits = ordered_map(functools.partial(evaluate_event, specs[0], ctx), range(trials))
    undecided = [spec.kind for spec in specs if spec.kind not in hits[0]]
    if undecided:
        raise InvalidInputError(f"one evaluation of {specs[0].kind} does not "
                                f"decide {', '.join(undecided)}")
    return [_finish_record(spec, sched, trials, sum(1 for hit in hits if hit[spec.kind]),
                           seed) for spec in specs]


# ---------------------------------------------------------------------------
# compound experiments


@dataclass
class WegnerRow(Record):
    """One scale of ``wegner_sweep``: the single-box resonance estimate at
    the energy, the exact separated-pair estimate, and the l^-q
    reference.  The estimates are written as their own records."""

    kind = "wegner_row"

    scale: int
    single_box: EstimateRecord
    pair: EstimateRecord
    reference: float


def wegner_sweep(
    scales: Sequence[int],
    energy: float,
    trials: int,
    sched: ScaleSchedule,
    seed: int,
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
    adjacency: str = "sup",
) -> list[WegnerRow]:
    """Per-scale resonance frequencies: the single-box event at ``energy``
    and the exact separated-pair event, with the l^-q reference."""
    rows = []
    for l in scales:
        custom = schedule_with_scale(sched, l)
        [single] = estimate_event(
            [EventSpec("resonant_at_energy", energy=float(energy), adjacency=adjacency)],
            custom, trials, seed, dist, interaction)
        [pair] = estimate_event([EventSpec("pair_resonant", adjacency=adjacency)],
                                custom, trials, seed + 1, dist, interaction)
        rows.append(WegnerRow(scale=int(l), single_box=single, pair=pair,
                              reference=float(l) ** (-sched.q)))
    return rows


def schedule_with_scale(sched: ScaleSchedule, L: int) -> ScaleSchedule:
    """Clone of the schedule whose scale-0 length is replaced by ``L``
    (for sweeps over box sizes at fixed parameters)."""
    from .msa import schedule as build

    return build(
        L, sched.alpha, sched.gamma, sched.m0, 1, beta=sched.beta, p=sched.p,
        q=sched.q, r0=sched.r0, g=sched.g, J=sched.J, d=sched.d,
        preset="custom", p_tilde=sched.p_tilde,
    )


@dataclass
class DecayFit(Record):
    """Per-eigenvector exponential-decay fit of the shell-max profile."""

    kind = "decay_fit"

    state: int
    loc_center: tuple[int, ...]
    m_hat: float
    residual: float
    fit_lo: int
    fit_hi: int
    profile: list[float]
    excluded_shells: list[int]


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median`` over the last axis, NaN when a NaN is present, without
    its NaN check, which imports ``numpy.ma`` on first use: the middle
    element, or the mean of the middle two, of the sorted values."""
    s = np.sort(a, axis=-1)
    h = s.shape[-1] // 2
    mid = s[..., h] if s.shape[-1] % 2 else np.mean(s[..., h - 1:h + 1], axis=-1)
    return np.where(np.isnan(s[..., -1]), np.nan, mid)


def _quantile(a: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)`` of a 1-D array (method ``"linear"``), NaN when
    a NaN is present, without the ``np.unique`` call that imports
    ``numpy.ma``: numpy's interpolation between the sorted neighbours of
    position ``(n - 1) q``."""
    s = np.sort(a)
    pos = (len(s) - 1) * q
    if np.isnan(s[-1]) or pos >= len(s) - 1:
        return float(s[-1])
    i = math.floor(pos)
    t = pos - i
    lo, hi = s[i], s[i + 1]
    return float(lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1 - t))


def decay_fit(op: FiniteOperator) -> tuple[list[DecayFit], dict]:
    """Fit the exponential decay rate of every eigenvector.

    The localization center is the amplitude argmax; the profile records
    the max |psi| per sup-distance shell around it; the slope of the log
    profile is fitted over shells [radius/4, radius], skipping the central
    plateau and the box edge.  Exact-zero shells are excluded and recorded.
    Returns the per-state fits and aggregate statistics (median fitted
    mass).
    """
    L = op.box.radius
    if L < 4:
        raise InvalidInputError("decay fits need box radius >= 4")
    sd = diagonalize(op)
    pts = op.points
    lo = max(1, math.ceil(L / 4))
    fits = []
    for s in range(sd.n):
        psi = np.abs(sd.eigenvectors[:, s])
        c = int(np.argmax(psi))
        dists = np.abs(pts - pts[c]).max(axis=1)
        nsh = int(dists.max()) + 1
        prof = shell_max(psi, dists, nsh)
        hi = min(L, nsh - 1)
        rs = np.arange(lo, hi + 1)
        vals = prof[lo : hi + 1]
        nz = vals > 0.0
        excluded = [int(r) for r, keep in zip(rs, nz) if not keep]
        if nz.sum() < 2:
            continue
        slope, intercept = np.polyfit(rs[nz], np.log(vals[nz]), 1)
        resid = float(
            np.sqrt(np.mean((np.log(vals[nz]) - (slope * rs[nz] + intercept)) ** 2))
        )
        fits.append(DecayFit(
            state=s, loc_center=tuple(int(x) for x in pts[c]),
            m_hat=float(-slope), residual=resid, fit_lo=int(lo), fit_hi=int(hi),
            profile=[float(x) for x in prof], excluded_shells=excluded,
        ))
    masses = np.array([f.m_hat for f in fits])
    agg = {
        "n_fits": len(fits),
        "median_m_hat": float(_median(masses)) if len(fits) else math.nan,
        "n_skipped": sd.n - len(fits),
    }
    return fits, agg


@dataclass
class LocalizationRow(Record):
    """One coupling of ``localization_mass_sweep``: the median over the
    samples of each sample's median fitted decay mass, the per-sample
    medians, and a bootstrap 95% interval for the median."""

    kind = "localization_row"

    g: float
    median_m_hat: float
    per_sample: list[float]
    ci_low: float
    ci_high: float
    ci_half_width: float


def localization_mass_sweep(
    gs: Sequence[float],
    L: int,
    samples: int,
    seed: int,
    d: int = 1,
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
    adjacency: str = "sup",
    bootstrap: int = 2000,
) -> list[LocalizationRow]:
    """Median fitted decay mass per coupling over seeded disorder samples,
    with a bootstrap 95% interval for the median."""
    dist = dist or DistributionSpec.uniform()
    interaction = interaction or InteractionSpec.triangular()
    box = Box2.of_origin(d, L)
    rows = []
    for gi, g in enumerate(gs):
        per_sample = []
        for t in range(samples):
            sample = sample_potential(dist, seed, t, domain_for_boxes([box]))
            op = assemble_two_particle(box, sample, interaction, g, adjacency)
            _, agg = decay_fit(op)
            per_sample.append(agg["median_m_hat"])
        arr = np.array(per_sample)
        rng = _stream_rng(seed, gi, "bootstrap")
        boots = _median(arr[rng.integers(0, len(arr), size=(bootstrap, len(arr)))])
        lo, hi = _quantile(boots, 0.025), _quantile(boots, 0.975)
        rows.append(LocalizationRow(
            g=float(g), median_m_hat=float(_median(arr)),
            per_sample=[float(x) for x in arr],
            ci_low=float(lo), ci_high=float(hi),
            ci_half_width=float(0.5 * (hi - lo)),
        ))
    return rows


@dataclass
class GTrendEstimate(EstimateRecord):
    """The estimate of ``singularity_vs_g_probe`` at one coupling ``g``:
    an ``estimate`` record with the coupling added."""

    g: float = field(kw_only=True)


@dataclass
class GTrendSummary(Record):
    """The pairwise trend verdicts of ``singularity_vs_g_probe``, one per
    consecutive pair of couplings."""

    kind = "g_trend_summary"

    trend: list[str]


def singularity_vs_g_probe(
    gs: Sequence[float],
    spec: EventSpec,
    sched: ScaleSchedule,
    trials: int,
    seed: int,
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
) -> tuple[list[GTrendEstimate], GTrendSummary]:
    """Frequency of the event ``spec`` at each coupling of ``gs``, with
    pairwise trend verdicts: 'decreasing' when intervals separate,
    'violation' when they separate the wrong way, else 'indeterminate'."""
    estimates = []
    for g in gs:
        # g enters neither L nor m, so the schedule needs no rebuild
        [rec] = estimate_event([spec], replace(sched, g=float(g)), trials, seed,
                               dist, interaction)
        estimates.append(GTrendEstimate(**vars(rec), g=float(g)))
    verdicts = []
    for ra, rb in zip(estimates, estimates[1:]):
        if rb.wilson_high < ra.wilson_low:
            verdicts.append("decreasing")
        elif rb.wilson_low > ra.wilson_high:
            verdicts.append("violation")
        else:
            verdicts.append("indeterminate")
    return estimates, GTrendSummary(trend=verdicts)
