"""Monte Carlo estimation of the probabilistic box properties and
effective-mass extraction from eigenvector decay.

Each trial derives its disorder sample and box placement deterministically
from ``(seed, trial index, event kind)``, so estimates reproduce
bit-identically and trials are order-independent.  Resonance-type events
are decided exactly through eigenvalue windows; singularity-type events are
decided on a recorded energy grid over the interval (their
Green's-function character admits no exact continuum test), so their
'exists E' frequencies are lower bounds.  Reference power-law bounds are
recorded next to each estimate but never asserted at desk scales.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .blas import ordered_map
from .classify import (
    cnr_subbox_layout,
    energy_grid,
    exists_resonant_pair,
    is_nontunnelling,
    is_resonant,
    resonance_width,
    singular_mask_at,
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
    family_spectra,
    pole_residues,
)

_MAX_PLACEMENT_ATTEMPTS = 10_000

EVENT_KINDS = (
    "single_box_singular",
    "pair_singular",
    "interactive_pair_singular",
    "resonant_at_energy",
    "pair_resonant",
    "both_resonant_at_energy",
    "single_particle_tunnelling",
    "ni_counter_at_least",
    "interactive_counter_at_least",
    "total_counter_at_least",
    "mixed_pair_singular",
    "ni_projection_tunnelling",
    "neither_box_cnr",
    "mixed_pair_residual",
)

_COUNTER_KINDS = ("ni_counter_at_least", "interactive_counter_at_least",
                  "total_counter_at_least")


@dataclass(frozen=True)
class EventSpec:
    """One estimable event: a kind plus its scale, energy data, and
    placement parameters.  Every kind maps to exactly one classifier
    composition (see ``evaluate_event``)."""

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
        if self.kind not in EVENT_KINDS:
            raise InvalidInputError(f"unknown event kind: {self.kind!r}")
        if self.kind in _COUNTER_KINDS and self.n < 1:
            raise InvalidInputError(f"{self.kind} needs n >= 1, got {self.n}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "k": self.k,
            "interval": list(self.interval) if self.interval else None,
            "energy": self.energy, "mass": self.mass, "n": self.n,
            "region": self.region, "adjacency": self.adjacency,
            "grid_spacing": self.grid_spacing,
        }


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
class EstimateRecord:
    """A Monte Carlo frequency with its confidence interval, reference
    bound, and provenance.  Wall time is tracked in memory and reported in
    the run manifest, not in the record, so emitted records stay
    byte-reproducible."""

    spec: EventSpec
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
    wall_time_s: Optional[float] = field(default=None, compare=False)

    def to_record(self) -> dict:
        return {
            "kind": "estimate",
            "event": self.spec.to_dict(),
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "seed": self.seed,
            "grid_delta": self.grid_delta,
            "bound_name": self.bound_name,
            "bound_value": self.bound_value,
            "comparison": self.comparison,
        }


def reference_bound(spec: EventSpec, sched: ScaleSchedule) -> tuple[Optional[str], Optional[float]]:
    """Power-law reference value the estimate is printed against."""
    k = spec.k
    L = sched.L[k]
    a, d = sched.alpha, sched.d
    if spec.kind in ("single_box_singular", "pair_singular",
                     "interactive_pair_singular"):
        return f"L_{k}^-2p", float(L) ** (-2 * sched.p)
    if spec.kind == "mixed_pair_singular":
        Ln = sched.L[k + 1]
        return f"L_{k + 1}^-2p", float(Ln) ** (-2 * sched.p)
    if spec.kind in ("resonant_at_energy", "pair_resonant",
                     "both_resonant_at_energy"):
        return f"L_{k}^-q", float(L) ** (-sched.q)
    if spec.kind == "single_particle_tunnelling":
        if sched.p_tilde is None:
            return None, None
        s = (sched.p_tilde - 2 * (1 + a) * d) / a
        return f"L_{k}^-s", float(L) ** (-s)
    if spec.kind == "ni_counter_at_least":
        if sched.p_tilde is None:
            return None, None
        return "count_bound_ni", float(L) ** (4 * d * a) * float(L) ** (-2 * sched.p_tilde)
    if spec.kind == "interactive_counter_at_least":
        n = spec.n
        return "count_bound_i", float(L) ** (2 * n * (1 + d * a)) * float(L) ** (-2 * n * sched.p)
    if spec.kind == "total_counter_at_least":
        n = spec.n
        b = float(L) ** (2 * n * (1 + d * a)) * float(L) ** (-2 * n * sched.p)
        if sched.p_tilde is not None:
            b += float(L) ** (4 * d * a) * float(L) ** (-2 * sched.p_tilde)
        return "count_bound_total", b
    if spec.kind == "neither_box_cnr":
        Ln = sched.L[k + 1]
        return f"L_{k + 1}^-(q/alpha-4)", float(Ln) ** (-(sched.q / a - 4))
    if spec.kind == "ni_projection_tunnelling":
        if sched.p_tilde is None:
            return None, None
        s = (sched.p_tilde - 2 * (1 + a) * d) / a
        Ln = sched.L[k + 1]
        return f"L_{k + 1}^-s", float(Ln) ** (-s)
    return None, None


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


def _interval_union(windows: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    if not windows:
        return []
    ws = sorted(windows)
    out = [list(ws[0])]
    for lo, hi in ws[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [tuple(w) for w in out]


def _interval_intersection(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def not_cnr_windows(
    center: Point2, k: int, sched: ScaleSchedule, sample: DisorderSample,
    interaction: InteractionSpec, g: float, adjacency: str,
) -> list[tuple[float, float]]:
    """Exact set of energies at which the scale-(k+1) box fails complete
    non-resonance: the union of resonance windows of the box and of every
    probed sub-box."""
    check_projections(Box2(center, sched.L[k + 1]), sample)
    families = [(sched.L[k + 1], np.array([center.flat]))] + [
        (r, Box2(center, off).points()) for r, off in cnr_subbox_layout(k, sched)]
    windows: list[tuple[float, float]] = []
    for radius, centers in families:
        eps = resonance_width(radius, sched.beta)
        for ev in family_spectra(centers, radius, sample, interaction, g, adjacency):
            windows += zip((ev - eps).ravel().tolist(), (ev + eps).ravel().tolist())
    return _interval_union(windows)


# ---------------------------------------------------------------------------
# per-trial event evaluation


def _require_interval(spec: EventSpec) -> tuple[float, float]:
    if spec.interval is None:
        raise InvalidInputError(f"event {spec.kind} needs an energy interval")
    return spec.interval


def _default_region(spec: EventSpec, sched: ScaleSchedule) -> int:
    if spec.region is not None:
        return spec.region
    L = sched.L[spec.k]
    if spec.kind in ("pair_resonant", "both_resonant_at_energy"):
        return 40 * L + 40
    if spec.kind == "mixed_pair_singular" or spec.kind.startswith(
        ("ni_projection", "neither", "mixed")
    ):
        return 12 * sched.L[spec.k + 1] + 16
    return 12 * L + 16


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
    grid = energy_grid(_require_interval(spec), L, sched.beta,
                       spec.grid_spacing)
    return bool(_grid_singular([box], sample, ctx.interaction, sched.g,
                               spec.adjacency, grid, m).any())


def _eval_pair_singular(spec, ctx, trial, interactive_only=False) -> bool:
    sched = ctx.sched
    L = sched.L[spec.k]
    m = spec.mass if spec.mass is not None else sched.m[spec.k]
    rng = _stream_rng(ctx.seed, trial, spec.kind)
    layer = (L, ctx.interaction.r0) if interactive_only else None
    u, v = _draw_separated(
        rng, sched.d, _default_region(spec, sched), 8 * L,
        interactive_layer=layer,
    )
    boxes = [Box2(u, L), Box2(v, L)]
    sample = _trial_sample(ctx.dist, ctx.seed, trial, boxes)
    grid = energy_grid(_require_interval(spec), L, sched.beta,
                       spec.grid_spacing)
    return bool(_grid_singular(boxes, sample, ctx.interaction, sched.g,
                               spec.adjacency, grid, m).all(axis=1).any())


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
    u, v = _draw_separated(rng, sched.d, _default_region(spec, sched), 64 * L)
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


def _counter_thresholds(spec) -> tuple[str, int]:
    if spec.kind == "ni_counter_at_least":
        return "M", max(2, spec.n)
    if spec.kind == "interactive_counter_at_least":
        return "N", 2 * spec.n
    return "K", 2 * spec.n + 2


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
    k = spec.k
    L_k, L_next = sched.L[k], sched.L[k + 1]
    m = spec.mass if spec.mass is not None else sched.m[k]
    parent = Box2.of_origin(sched.d, L_next)
    sample = _trial_sample(ctx.dist, ctx.seed, trial, [parent])
    spectra = subbox_spectra(parent.center, k, sched, sample, ctx.interaction,
                             sched.g, spec.adjacency)
    which, threshold = _counter_thresholds(spec)
    grid = energy_grid(_require_interval(spec), L_k, sched.beta,
                       spec.grid_spacing)
    masks = spectra.mask(grid, m)
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
    half = _default_region(spec, sched)
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
    p1, p2, _ = projections(by)
    ok1, _ = is_nontunnelling(p1, sample, sched.g, 2.0 * sched.m0, spec.adjacency)
    ok2, _ = is_nontunnelling(p2, sample, sched.g, 2.0 * sched.m0, spec.adjacency)
    t_event = (not ok1) or (not ok2)
    wx = not_cnr_windows(u, k, sched, sample, ctx.interaction, sched.g, spec.adjacency)
    wy = not_cnr_windows(v, k, sched, sample, ctx.interaction, sched.g, spec.adjacency)
    overlap = _interval_intersection(wx, wy)
    overlap = _interval_intersection(overlap, [tuple(interval)])
    sigma_event = len(overlap) > 0
    return {
        "mixed_pair_singular": b_event,
        "ni_projection_tunnelling": t_event,
        "neither_box_cnr": sigma_event,
        "mixed_pair_residual": b_event and not t_event and not sigma_event,
    }


_MIXED_KINDS = ("mixed_pair_singular", "ni_projection_tunnelling",
                "neither_box_cnr", "mixed_pair_residual")

#: kinds whose evaluation reads scale k+1 as well as scale k
NEXT_SCALE_KINDS = _COUNTER_KINDS + _MIXED_KINDS


def evaluate_event(spec: EventSpec, ctx: _TrialContext, trial: int) -> bool:
    kind = spec.kind
    if kind == "single_box_singular":
        return _eval_single_box_singular(spec, ctx, trial)
    if kind == "pair_singular":
        return _eval_pair_singular(spec, ctx, trial)
    if kind == "interactive_pair_singular":
        return _eval_pair_singular(spec, ctx, trial, interactive_only=True)
    if kind == "resonant_at_energy":
        return _eval_resonant_at_energy(spec, ctx, trial)
    if kind == "pair_resonant":
        return _eval_pair_resonant(spec, ctx, trial)
    if kind == "both_resonant_at_energy":
        return _eval_pair_resonant(spec, ctx, trial, fixed_energy=True)
    if kind == "single_particle_tunnelling":
        return _eval_single_particle_tunnelling(spec, ctx, trial)
    if kind in _COUNTER_KINDS:
        return _eval_counter(spec, ctx, trial)
    if kind in _MIXED_KINDS:
        return _eval_mixed_pair(spec, ctx, trial)[kind]
    raise InvalidInputError(f"unknown event kind: {kind!r}")


def _grid_delta(spec: EventSpec, sched: ScaleSchedule) -> Optional[float]:
    if spec.kind in ("single_box_singular", "pair_singular",
                     "interactive_pair_singular", "mixed_pair_singular",
                     "ni_counter_at_least", "interactive_counter_at_least",
                     "total_counter_at_least") and spec.interval is not None:
        L = sched.L[spec.k + 1] if spec.kind == "mixed_pair_singular" else sched.L[spec.k]
        g = energy_grid(spec.interval, L, sched.beta, spec.grid_spacing)
        return float(g[1] - g[0])
    return None


def _finish_record(spec, sched, trials, successes, seed, t0) -> EstimateRecord:
    est = successes / trials
    lo, hi = wilson_interval(successes, trials)
    name, bound = reference_bound(spec, sched)
    if bound is None:
        cmp_ = "n/a"
    elif hi <= bound:
        cmp_ = "pass"
    elif lo > bound:
        cmp_ = "fail"
    else:
        cmp_ = "indeterminate"
    return EstimateRecord(
        spec=spec, trials=trials, successes=successes, estimate=est,
        wilson_low=lo, wilson_high=hi, seed=seed,
        grid_delta=_grid_delta(spec, sched),
        bound_name=name, bound_value=bound, comparison=cmp_,
        wall_time_s=time.perf_counter() - t0,
    )


def estimate_event(
    spec: EventSpec,
    sched: ScaleSchedule,
    trials: int,
    seed: int,
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
) -> EstimateRecord:
    """Monte Carlo estimate of one event's probability with a Wilson 95%
    interval; deterministic given (seed, spec, schedule, trials).  Trials
    run on ``blas.ordered_map``'s workers; each is a pure function of
    ``(seed, trial)``, so the record does not depend on the worker count."""
    if trials <= 0:
        raise InvalidInputError("at least one trial is required")
    t0 = time.perf_counter()
    ctx = _TrialContext(
        sched=sched,
        dist=dist or DistributionSpec.uniform(),
        interaction=interaction or InteractionSpec.triangular(sched.r0),
        seed=seed,
    )
    hits = ordered_map(functools.partial(evaluate_event, spec, ctx), range(trials))
    successes = sum(1 for hit in hits if hit)
    return _finish_record(spec, sched, trials, successes, seed, t0)


# ---------------------------------------------------------------------------
# compound experiments


def wegner_sweep(
    scales: Sequence[int],
    energy: float | tuple[float, float],
    trials: int,
    sched: ScaleSchedule,
    seed: int,
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
    adjacency: str = "sup",
) -> list[dict]:
    """Per-scale resonance frequencies: the single-box fixed-energy event
    and the exact separated-pair event, with the l^-q reference."""
    if trials <= 0:
        raise InvalidInputError("at least one trial is required")
    fixed_e = not isinstance(energy, (tuple, list))
    rows = []
    for l in scales:
        custom = schedule_with_scale(sched, l)
        w1 = estimate_event(
            EventSpec("resonant_at_energy", k=0,
                      energy=float(energy) if fixed_e else None,
                      interval=None if fixed_e else tuple(energy),
                      adjacency=adjacency),
            custom, trials, seed, dist, interaction,
        ) if fixed_e else None
        w2 = estimate_event(
            EventSpec("pair_resonant", k=0,
                      interval=None if fixed_e else tuple(energy),
                      adjacency=adjacency),
            custom, trials, seed + 1, dist, interaction,
        )
        rows.append({
            "scale": int(l),
            "single_box": w1.to_record() if w1 else None,
            "pair": w2.to_record(),
            "reference": float(l) ** (-sched.q),
        })
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
class DecayFit:
    """Per-eigenvector exponential-decay fit of the shell-max profile."""

    state: int
    loc_center: tuple[int, ...]
    m_hat: float
    residual: float
    fit_lo: int
    fit_hi: int
    profile: list[float]
    excluded_shells: list[int]

    def to_record(self) -> dict:
        return {
            "kind": "decay_fit", "state": self.state,
            "loc_center": list(self.loc_center), "m_hat": self.m_hat,
            "residual": self.residual, "fit_lo": self.fit_lo,
            "fit_hi": self.fit_hi, "profile": self.profile,
            "excluded_shells": self.excluded_shells,
        }


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
) -> list[dict]:
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
        rows.append({
            "g": float(g), "median_m_hat": float(_median(arr)),
            "per_sample": [float(x) for x in arr],
            "ci_low": float(lo), "ci_high": float(hi),
            "ci_half_width": float(0.5 * (hi - lo)),
        })
    return rows


def ss_induction_probe(
    sched: ScaleSchedule,
    k: int,
    trials: int,
    seed: int,
    interval: tuple[float, float],
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
    adjacency: str = "sup",
) -> dict:
    """Estimate the mixed-pair decomposition events in one pass: the
    pair-singularity event B, the covering events T and Sigma, and the
    residual ``B and not T and not Sigma``.  Returns ``{"records": {kind:
    EstimateRecord}}``."""
    if trials <= 0:
        raise InvalidInputError("at least one trial is required")
    t0 = time.perf_counter()
    ctx = _TrialContext(
        sched=sched, dist=dist or DistributionSpec.uniform(),
        interaction=interaction or InteractionSpec.triangular(sched.r0),
        seed=seed,
    )
    spec = EventSpec("mixed_pair_singular", k=k, interval=interval,
                     adjacency=adjacency)
    counts = dict.fromkeys(_MIXED_KINDS, 0)
    for trial in range(trials):
        flags = _eval_mixed_pair(spec, ctx, trial)
        for kind in _MIXED_KINDS:
            counts[kind] += flags[kind]
    records = {}
    for kind in _MIXED_KINDS:
        kspec = EventSpec(kind, k=k, interval=interval, adjacency=adjacency)
        records[kind] = _finish_record(kspec, sched, trials, counts[kind], seed, t0)
    return {"records": records}


def singularity_vs_g_probe(
    gs: Sequence[float],
    sched: ScaleSchedule,
    trials: int,
    seed: int,
    interval: tuple[float, float],
    dist: Optional[DistributionSpec] = None,
    interaction: Optional[InteractionSpec] = None,
    adjacency: str = "sup",
) -> dict:
    """Single-box singularity frequency across couplings, with pairwise
    trend verdicts: 'decreasing' when intervals separate, 'violation' when
    they separate the wrong way, else 'indeterminate'."""
    rows = []
    for g in gs:
        from .msa import schedule as build

        s_g = build(sched.L0, sched.alpha, sched.gamma, sched.m0, sched.k_max,
                    beta=sched.beta, p=sched.p, q=sched.q, r0=sched.r0,
                    g=float(g), J=sched.J, d=sched.d, preset="custom",
                    p_tilde=sched.p_tilde)
        rec = estimate_event(
            EventSpec("single_box_singular", k=0, interval=interval,
                      adjacency=adjacency),
            s_g, trials, seed, dist, interaction,
        )
        rows.append({"g": float(g), "record": rec})
    verdicts = []
    for a, b in zip(rows, rows[1:]):
        ra, rb = a["record"], b["record"]
        if rb.wilson_high < ra.wilson_low:
            verdicts.append("decreasing")
        elif rb.wilson_low > ra.wilson_high:
            verdicts.append("violation")
        else:
            verdicts.append("indeterminate")
    return {"rows": rows, "trend": verdicts}
