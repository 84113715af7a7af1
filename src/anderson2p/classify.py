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
(eigenvalue windows) and on a recorded energy grid for singularity
predicates, whose Green's-function character admits no exact continuum
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disorder import DisorderSample, InteractionSpec
from .errors import InvalidInputError, PreconditionError
from .geometry import Box1, Box2, Point2, is_interactive
from .operators import (
    FiniteOperator,
    SpectralData,
    assemble_single_particle,
    assemble_two_particle,
    check_projections,
    diagonalize,
    family_spectra,
    single_particle_factors,
)
from .resolvent import RESONANCE_GUARD, boundary_green_max, spectral_gap

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
    gap: Optional[float] = None


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
    gap = spectral_gap(op, E)
    if gap <= RESONANCE_GUARD * max(1.0, abs(E), op.norm2()):
        return False, NSWitness(
            math.inf, None, threshold, resonant=True, gap=float(gap)
        )
    value, point = boundary_green_max(op, E)
    ns = value <= threshold
    pt = tuple(int(c) for c in point) if point is not None else None
    return ns, NSWitness(value, pt, threshold, gap=float(gap))


def singular_at_spectral(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    center_index: int,
    boundary_indices: np.ndarray,
    radius: int,
    E: float,
    m: float,
) -> bool:
    """``singular_mask_at`` for one box and one energy.  Equivalent to
    ``is_ns`` up to roundoff, with energies within the solver guard of the
    spectrum counted as singular."""
    return bool(singular_mask_at(eigenvalues[None], eigenvectors[None], center_index,
                                 boundary_indices, radius, E, m)[0])


def singular_mask_at(
    eigenvalues: np.ndarray,  # (ncand, n) per-candidate ascending spectra
    eigenvectors: np.ndarray,  # (ncand, n, n)
    center_index: int,
    boundary_indices: np.ndarray,
    radius: int,
    E: float | np.ndarray,
    m: float,
) -> np.ndarray:
    """(E, m)-singularity of every operator of a stack of same-shape
    operators (translated sub-boxes share the index layout), decided
    through their eigendecompositions; energies within the solver guard of
    a spectrum count as singular.

    A scalar ``E`` gives a ``(ncand,)`` mask, a 1-D energy array an
    ``(nE, ncand)`` mask.  Energies are taken in blocks whose
    ``(ncand, n, block)`` temporaries fit in ``MASK_BYTES``.
    """
    energies = np.atleast_1d(np.asarray(E, dtype=np.float64))
    ncand, n = eigenvalues.shape
    threshold = math.exp(-m * radius)
    edge = np.maximum(np.abs(eigenvalues[:, 0]), np.abs(eigenvalues[:, -1]))
    center = eigenvectors[:, center_index, :, None]  # (ncand, n, 1)
    boundary = eigenvectors[:, boundary_indices, :]  # (ncand, nb, n)
    out = np.empty((len(energies), ncand), dtype=bool)
    step = max(1, MASK_BYTES // (8 * ncand * n))
    for lo in range(0, len(energies), step):
        block = energies[lo:lo + step]
        shift = eigenvalues[:, :, None] - block  # (ncand, n, block)
        gaps = np.abs(shift).min(axis=1)
        scales = np.maximum(np.maximum(1.0, np.abs(block)), edge[:, None])
        mask = gaps <= RESONANCE_GUARD * scales
        if len(boundary_indices):
            with np.errstate(divide="ignore", invalid="ignore"):
                cols = boundary @ (center / shift)  # (ncand, nb, block)
            mask |= np.abs(cols).max(axis=1) > threshold
        out[lo:lo + step] = mask.T
    return out if np.ndim(E) else out[0]


def is_resonant(
    spectral: SpectralData | np.ndarray, E: float, L: int, beta: float
) -> tuple[bool, float]:
    """E-resonance: the spectrum comes within exp(-L**beta) of E.
    Returns the verdict and the spectral gap."""
    ev = spectral.eigenvalues if isinstance(spectral, SpectralData) else np.asarray(spectral)
    gap = float(np.abs(ev - E).min())
    return gap < resonance_width(L, beta), gap


def exists_resonant_pair(
    spec1: SpectralData | np.ndarray,
    spec2: SpectralData | np.ndarray,
    interval: Optional[tuple[float, float]],
    L: int,
    beta: float,
) -> tuple[bool, Optional[tuple[float, float]]]:
    """Exact test for 'some E (in the interval) makes both operators
    resonant'.

    Both are E-resonant iff E lies in the overlap of two eigenvalue
    windows of half-width ``exp(-L**beta)``; overlap exists iff two
    eigenvalues are closer than twice that, and the overlap window must
    meet the interval.  No energy grid is involved.
    """
    ev1 = spec1.eigenvalues if isinstance(spec1, SpectralData) else np.asarray(spec1)
    ev2 = spec2.eigenvalues if isinstance(spec2, SpectralData) else np.asarray(spec2)
    eps = resonance_width(L, beta)
    lam = ev1[:, None]
    mu = ev2[None, :]
    lo = np.maximum(lam, mu) - eps
    hi = np.minimum(lam, mu) + eps
    ok = lo < hi
    if interval is not None:
        a, b = interval
        ok &= (lo < b) & (hi > a)
    if not ok.any():
        return False, None
    i, j = np.argwhere(ok)[0]
    return True, (float(ev1[i]), float(ev2[j]))


@dataclass
class CnrReport:
    """Outcome of the complete-non-resonance test at scale k+1."""

    ok: bool
    parent_gap: float
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
    """(E, J)-complete non-resonance of the scale-(k+1) box at ``center``.

    Exhaustive over all sub-box centers while their count stays within
    budget, else a seeded uniform subsample is checked and the report is
    marked non-exhaustive.  Each probed radius is one translated family
    (``family_spectra``); the first resonant sub-box in probe order is
    reported.
    """
    if schedule.J < 1 or schedule.J % 2 == 0:
        raise InvalidInputError("CNR sub-box count J must be odd and positive")
    parent = Box2(center, schedule.L[k + 1])
    if parent_op is None:
        parent_op = assemble_two_particle(parent, sample, interaction, g, adjacency)
    else:
        check_projections(parent, sample)
    layout = cnr_subbox_layout(k, schedule)
    total = sum((2 * off + 1) ** (2 * parent.d) for _, off in layout)
    exhaustive = total <= exhaustive_limit
    resonant, gap = is_resonant(parent_op.eigenvalues(), E, parent.radius, schedule.beta)
    if resonant:
        return CnrReport(False, gap, failed_center=center.flat, failed_radius=parent.radius,
                         failed_gap=gap, n_candidates=total, n_checked=0,
                         exhaustive=exhaustive)
    rng = None
    if not exhaustive:
        rng = np.random.Generator(
            np.random.Philox(key=np.array([sample.seed & (2**64 - 1),
                                           (sample.trial << 1) ^ 0xC2B2], dtype=np.uint64))
        )
    checked = 0
    for radius, max_off in layout:
        if exhaustive:
            centers = Box2(center, max_off).points()
        else:
            share = max(1, int(sample_budget * (2 * max_off + 1) ** (2 * parent.d) / total))
            centers = np.array(center.flat) + rng.integers(
                -max_off, max_off + 1, size=(share, 2 * parent.d))
        width = resonance_width(radius, schedule.beta)
        first = 0  # index in ``centers`` of the chunk's first box
        for ev in family_spectra(centers, radius, sample, interaction, g, adjacency):
            gaps = np.abs(ev - E).min(axis=1)
            hits = np.flatnonzero(gaps < width)
            if len(hits):
                i = int(hits[0])
                return CnrReport(
                    False, gap, failed_center=tuple(int(c) for c in centers[first + i]),
                    failed_radius=radius, failed_gap=float(gaps[i]), n_candidates=total,
                    n_checked=checked + first + i + 1, exhaustive=exhaustive,
                )
            first += len(ev)
        checked += len(centers)
    return CnrReport(True, gap, n_candidates=total, n_checked=checked,
                     exhaustive=exhaustive)


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
    center-boundary product stays below exp(-m * radius)."""
    threshold = math.exp(-m_hat * box.radius)
    if box.radius == 0:
        return True, NTWitness(0.0, None, None, threshold, math.inf, degenerate=True)
    if op is None:
        op = assemble_single_particle(box, sample, g, adjacency=adjacency)
    sd = diagonalize(op)
    bidx = box.boundary_indices()
    prod = np.abs(sd.eigenvectors[bidx] * sd.eigenvectors[box.center_index()])
    j_flat = int(np.argmax(prod))
    iy, s = np.unravel_index(j_flat, prod.shape)
    value = float(prod[iy, s])
    cap = math.inf if value == 0.0 else -math.log(value) / box.radius
    witness = NTWitness(
        value, int(s), tuple(int(c) for c in op.points[bidx[iy]]), threshold, cap
    )
    return value <= threshold, witness


def is_nontunnelling2(
    box: Box2,
    sample: DisorderSample,
    g: float,
    m_hat: float,
    adjacency: str = "sup",
) -> tuple[bool, tuple[NTWitness, NTWitness]]:
    """Two-particle wrapper: non-tunnelling iff both projections are."""
    from .geometry import projections

    p1, p2, _ = projections(box)
    ok1, w1 = is_nontunnelling(p1, sample, g, m_hat, adjacency)
    ok2, w2 = is_nontunnelling(p2, sample, g, m_hat, adjacency)
    return ok1 and ok2, (w1, w2)


def nt_decay_discount(L: int, beta: float, d: int) -> float:
    """Relative mass loss when converting a non-tunnelling bound into a
    non-singularity bound on a non-interactive box:
    1 - L**(beta-1) - ln((2L+1)**(2d)) / L."""
    return 1.0 - float(L) ** (beta - 1.0) - math.log((2 * L + 1) ** (2 * d)) / L


def nt_size_condition(L: int, beta: float, d: int) -> bool:
    """Size condition for the conversion: (L**beta + ln((2L+1)**(2d))) / L < 1."""
    return (float(L) ** beta + math.log((2 * L + 1) ** (2 * d))) / L < 1.0


@dataclass
class NtToNsReport:
    """Record of one instance of the deterministic step 'non-tunnelling
    projections + non-resonant box => non-singular box at a reduced mass'
    on a non-interactive box."""

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

    def to_record(self) -> dict:
        from dataclasses import asdict

        rec = asdict(self)
        rec["kind"] = "nt_to_ns"
        rec["center"] = list(self.center)
        return rec


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
    whose hypotheses fail are reported as skipped, not failures.
    """
    if is_interactive(box, interaction.r0):
        raise PreconditionError("the decay step applies to non-interactive boxes")
    L, d = box.radius, box.d
    ok1, w1 = is_nontunnelling(Box1(box.center.x1, L), sample, g, m_hat, adjacency)
    ok2, w2 = is_nontunnelling(Box1(box.center.x2, L), sample, g, m_hat, adjacency)
    # non-interactive box spectrum via its factors (exact under l1 adjacency)
    op1, op2 = single_particle_factors(box, sample, g, adjacency)
    sums = np.add.outer(op1.eigenvalues(), op2.eigenvalues()).ravel()
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
    ns, w = is_ns(box, sample, interaction, g, E, m_eff, adjacency)
    report.m_eff = float(m_eff)
    report.ns_ok = bool(ns)
    report.max_boundary_gf = w.max_boundary_gf
    report.ns_margin = float(w.threshold - w.max_boundary_gf)
    return report


@dataclass
class ClassificationReport:
    """Aggregate classification of one box at one energy, with the witness
    data each flag can be reproduced from."""

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

    def to_record(self) -> dict:
        from dataclasses import asdict

        d = asdict(self)
        d["kind"] = "classification"
        return d


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
        nt_ok, (w1, w2) = is_nontunnelling2(box, sample, g, nt_mass, adjacency)
        worst = w1 if w1.max_product >= w2.max_product else w2
        rep.nt = nt_ok
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
