import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson2p import classify, operators
from anderson2p.classify import (
    CNR_EXHAUSTIVE_LIMIT,
    classify_box,
    cnr_subbox_layout,
    energy_grid,
    exists_resonant_pair,
    is_cnr,
    is_nontunnelling,
    is_ns,
    is_resonant,
    nt_decay_discount,
    nt_size_condition,
    nt_to_ns_check,
    resonance_width,
    resonance_windows,
    singular_at_spectral,
    singular_mask_at,
)
from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.errors import InvalidInputError, NumericError, PreconditionError
from anderson2p.geometry import Box1, Box2, Point1, Point2
from anderson2p.msa import desk_schedule, schedule
from anderson2p.operators import assemble_two_particle, box_family, pole_residues
from anderson2p.resolvent import window_clear

from .conftest import box_with_sample, certify_nothing
from .oracles import (
    cnr_by_subbox,
    cnr_probe_spectra,
    dense_inverse_green,
    grid_resonant_pair,
    merged_windows,
    nontunnelling_by_eigenvectors,
    resonant_pair_by_pairs,
    singular_mask_by_eigenvectors,
)


def _interaction():
    return InteractionSpec.triangular(1, 1.0)


class TestIsNS:
    def test_mass_zero_threshold_one(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 2, seed=1)
        ns, w = is_ns(box, sample, _interaction(), 20.0, -5.0, 0.0)
        assert w.threshold == 1.0
        assert ns == (w.max_boundary_gf <= 1.0)

    def test_single_point_vacuous(self):
        box, sample = box_with_sample(Point2.of((0,), (4,)), 0, seed=1)
        ns, w = is_ns(box, sample, _interaction(), 1.0, 0.0, 1.0)
        assert ns and w.degenerate

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            box, sample = box_with_sample(Point2.of((0,), (0,)), 3,
                                          seed=int(rng.integers(1e9)))
            op = assemble_two_particle(box, sample, _interaction(), 20.0)
            e = 0.0
            m = 0.5
            ns, w = is_ns(box, sample, _interaction(), 20.0, e, m, op=op)
            i = op.center_index()
            bidx = op.boundary_indices()
            brute = max(
                abs(dense_inverse_green(op.matrix, e, i, int(j))) for j in bidx
            )
            assert w.max_boundary_gf == pytest.approx(brute, rel=1e-8, abs=1e-10)
            assert ns == (brute <= math.exp(-m * box.radius))

    def test_resonant_energy_classified_singular(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=2)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        e = float(op.eigenvalues()[0])
        ns, w = is_ns(box, sample, _interaction(), 1.0, e, 0.5, op=op)
        assert not ns and w.resonant


class TestIsResonant:
    def test_exact_eigenvalue(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=3)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        res, gap = is_resonant(op.eigenvalues(), float(op.eigenvalues()[2]), 1, 0.5)
        assert res and gap == 0.0

    def test_beyond_hull(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=3)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        e = float(op.eigenvalues()[-1]) + 1.0
        for L in (1, 2, 5):
            res, _ = is_resonant(op.eigenvalues(), e, L, 0.5)
            assert not res

    def test_threshold_arithmetic(self):
        # width exp(-4**0.5) ~ 0.1353; a gap of 0.2 is non-resonant
        ev = np.array([1.0])
        res, gap = is_resonant(ev, 1.2, 4, 0.5)
        assert not res and gap == pytest.approx(0.2)
        assert resonance_width(4, 0.5) == pytest.approx(math.exp(-2.0))


def _touching(lam: float, eps: float):
    """An eigenvalue whose window's lower end, in floating point, is the
    upper end of the window around ``lam``, or None."""
    end = lam + eps
    mu = end + eps
    for _ in range(8):
        if mu - eps == end:
            return mu
        mu = float(np.nextafter(mu, -np.inf if mu - eps > end else np.inf))
    return None


class TestExistsResonantPair:
    def test_identical_spectra(self):
        ev = np.array([0.0, 1.0, 2.0])
        hit, wit = exists_resonant_pair(ev, ev, (-0.5, 2.5), 3, 0.5)
        # the witness is the lowest common window, around the shared 0
        assert hit and wit[0] < 0.0 < wit[1]

    def test_meet_matches_pairwise_oracle(self):
        # random spectra with touching windows, inside one spectrum and
        # across the pair, and intervals whose edges are window ends
        rng = np.random.default_rng(16)
        seen = {"touching": 0, "edge": 0, "hit": 0, "miss": 0}
        for case in range(600):
            L = int(rng.integers(2, 6))
            eps = resonance_width(L, 0.5)
            ev1 = list(rng.uniform(-2, 2, size=int(rng.integers(1, 10))))
            ev2 = list(rng.uniform(-2, 2, size=int(rng.integers(1, 10))))
            for spectrum, lam in ((ev1, ev1[0]), (ev2, ev1[-1])):
                mu = _touching(lam, eps)
                if mu is not None:
                    spectrum.append(mu)
                    seen["touching"] += 1
            ev1, ev2 = np.sort(ev1), np.sort(ev2)
            ends = np.concatenate([ev1 - eps, ev1 + eps, ev2 - eps, ev2 + eps])
            interval = [None, (-1.0, 1.0), (float(rng.choice(ends)), 3.0),
                        (-3.0, float(rng.choice(ends)))][case % 4]
            seen["edge"] += case % 4 > 1
            hit, wit = exists_resonant_pair(ev1, ev2, interval, L, 0.5)
            assert hit == resonant_pair_by_pairs(ev1, ev2, interval, L, 0.5)
            seen["hit" if hit else "miss"] += 1
            if hit:
                a, b = interval or (-math.inf, math.inf)
                e = 0.5 * (wit[0] + wit[1])
                assert a <= wit[0] < wit[1] <= b
                # within rounding of a window of each spectrum: the middle
                # of a thin witness can be where two windows touch
                reach = eps * (1 + 1e-12)
                assert np.abs(ev1 - e).min() < reach and np.abs(ev2 - e).min() < reach
            # the merged windows are the list union's, end for end
            lo, hi = resonance_windows([(ev1, eps), (ev2, 0.5 * eps)])
            assert list(zip(lo.tolist(), hi.tolist())) == merged_windows(
                [(e - eps, e + eps) for e in ev1.tolist()]
                + [(e - 0.5 * eps, e + 0.5 * eps) for e in ev2.tolist()])
        assert min(seen.values()) > 50, seen

    def test_separated_spectra(self):
        hit, _ = exists_resonant_pair(
            np.array([0.0]), np.array([1.0]), None, 2, 0.5)
        assert not hit  # windows of width ~0.24 around 0 and 1 are disjoint

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        n_checked = n_disagree = 0
        for _ in range(200):
            L = int(rng.integers(2, 5))
            ev1 = np.sort(rng.uniform(-2, 2, size=9))
            ev2 = np.sort(rng.uniform(-2, 2, size=9))
            interval = (-1.0, 1.0)
            exact, _ = exists_resonant_pair(ev1, ev2, interval, L, 0.5)
            width = resonance_width(L, 0.5)
            spacing = width / 10.0
            bruteforce = grid_resonant_pair(ev1, ev2, interval, L, 0.5, spacing)
            if exact != bruteforce:
                # disagreement is tolerated only when the exact overlap
                # window is narrower than two grid steps
                lo = np.maximum(ev1[:, None], ev2[None, :]) - width
                hi = np.minimum(ev1[:, None], ev2[None, :]) + width
                widths = np.clip(hi - lo, 0, None)
                assert widths.max() < 2 * spacing or not exact
                n_disagree += 1
            n_checked += 1
        assert n_checked == 200
        assert n_disagree <= 5


class TestEnergyGrid:
    def test_spacing_rule(self):
        g = energy_grid((-1.0, 1.0), 2, 0.5)
        delta = g[1] - g[0]
        assert delta <= min(0.02, 0.5 * resonance_width(2, 0.5)) + 1e-12
        assert g[0] == -1.0 and g[-1] == 1.0

    @pytest.mark.parametrize("spacing", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_non_positive_spacing(self, spacing):
        # 0 used to fall back to the default rule, -0.5 gave the endpoints only
        with pytest.raises(InvalidInputError):
            energy_grid((-1.0, 1.0), 2, 0.5, spacing)

    def test_explicit_spacing(self):
        assert len(energy_grid((-1.0, 1.0), 2, 0.5, 0.5)) == 5


def _family(radius, half_width, g=5.0, adjacency="sup"):
    """The radius-``radius`` boxes centred in the cube of half-width
    ``half_width`` around the origin (d = 1): their stacked Hamiltonians,
    the centre and boundary indices of their layout, and the radius."""
    centers = Box2.of_origin(1, half_width).points()
    sample = sample_potential(DistributionSpec.uniform(), 5, 2, domain_for_boxes(
        [Box2.of_origin(1, radius + half_width)]))
    h = box_family(centers, radius, sample, _interaction(), g, adjacency)
    template = Box2.of_origin(1, radius)
    return h, template.center_index(), template.boundary_indices(), radius


class TestSingularMask:
    """``singular_mask_at`` over an energy array equals one call per energy,
    whatever the energy block, and equals the eigenvector-form mask."""

    @pytest.mark.parametrize("case", ["stack", "one-box", "radius-0"])
    @pytest.mark.parametrize("block", [None, 1, 4])
    def test_energy_array_matches_per_energy_calls(self, monkeypatch, case, block):
        h, ci, bidx, radius = _family(0 if case == "radius-0" else 2, 2)
        if case == "one-box":
            h = h[:1]
        poles, residues = pole_residues(h, ci, bidx)
        ev, q = np.linalg.eigh(h)
        assert np.array_equal(poles, ev)
        ncand, n = ev.shape
        if block is not None:
            monkeypatch.setattr(classify, "MASK_BYTES", block * 8 * ncand * n)
        # 23 energies, not a multiple of either block; exact eigenvalues included
        grid = np.concatenate([np.linspace(-1.5, 1.5, 20), ev[0, [0, n // 2, -1]]])
        threshold = math.exp(-0.5 * radius)
        mask = singular_mask_at(poles, residues, threshold, grid)
        per_energy = np.stack([singular_mask_at(poles, residues, threshold, float(E))
                               for E in grid])
        assert mask.shape == (len(grid), ncand)
        assert np.array_equal(mask, per_energy)
        assert np.array_equal(mask, singular_mask_by_eigenvectors(ev, q, ci, bidx, radius,
                                                                  grid, 0.5))
        assert mask[-3:, 0].all()  # an eigenvalue of box 0 is singular for it
        if case == "stack":
            assert not mask.all()

    @pytest.mark.parametrize("g", [1.0, 5.0, 30.0])
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_equals_eigenvector_form(self, g, adjacency):
        # a fine grid and every eigenvalue of the first boxes, at three masses
        h, ci, bidx, radius = _family(3, 3, g, adjacency)
        poles, residues = pole_residues(h, ci, bidx)
        ev, q = np.linalg.eigh(h)
        grid = np.concatenate([np.linspace(-2.0, 2 * g + 2.0, 401), ev[:3].ravel()])
        seen = set()
        for m in (0.05, 0.5, 2.0):
            mask = singular_mask_at(poles, residues, math.exp(-m * radius), grid)
            assert np.array_equal(
                mask, singular_mask_by_eigenvectors(ev, q, ci, bidx, radius, grid, m))
            seen |= set(np.unique(mask).tolist())
        assert seen == {False, True}

    def test_single_box_agrees_with_is_ns(self):
        h, ci, bidx, radius = _family(2, 0)
        ev, q = np.linalg.eigh(h)
        box = Box2.of_origin(1, 2)
        sample = sample_potential(DistributionSpec.uniform(), 5, 2,
                                  domain_for_boxes([box]))
        energies = np.linspace(-1.0, 6.0, 15)
        verdicts = set()
        for m in (0.05, 0.5, 2.0):
            for E in energies:
                ns, _ = is_ns(box, sample, _interaction(), 5.0, float(E), m)
                singular = singular_at_spectral(ev[0], q[0], ci, bidx, radius, float(E), m)
                assert singular == (not ns), (E, m)
                verdicts.add(singular)
        assert verdicts == {True, False}


class TestCNR:
    def test_far_energy_is_cnr(self, desk):
        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 11, 0,
                                  domain_for_boxes([parent]))
        rep = is_cnr(parent.center, 0, desk, sample, _interaction(), desk.g, -50.0)
        assert rep.ok and rep.exhaustive
        assert rep.n_checked == rep.n_candidates > 0

    def test_eigenvalue_not_cnr(self, desk):
        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 11, 0,
                                  domain_for_boxes([parent]))
        op = assemble_two_particle(parent, sample, _interaction(), desk.g)
        e = float(op.eigenvalues()[5])
        rep = is_cnr(parent.center, 0, desk, sample, _interaction(), desk.g, e)
        assert not rep.ok
        assert rep.failed_radius == parent.radius  # condition (i) fails

    @pytest.mark.parametrize("exhaustive_limit", [CNR_EXHAUSTIVE_LIMIT, 1])
    def test_resonant_parent_reports_sweep_layout(self, desk, exhaustive_limit):
        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 11, 0,
                                  domain_for_boxes([parent]))
        op = assemble_two_particle(parent, sample, _interaction(), desk.g)
        rep = is_cnr(parent.center, 0, desk, sample, _interaction(), desk.g,
                     float(op.eigenvalues()[5]), exhaustive_limit=exhaustive_limit)
        total = sum((2 * off + 1) ** 2 for _, off in cnr_subbox_layout(0, desk))
        assert not rep.ok and rep.failed_radius == parent.radius
        # no sub-box was checked, but the report names the sweep that applies
        assert (rep.n_candidates, rep.n_checked) == (total, 0)
        assert rep.exhaustive == (total <= exhaustive_limit)

    def test_matches_exhaustive_enumeration(self):
        # J=1 schedule: the only probed radius is L0+1
        sched = schedule(2, 1.5, 0.5, 1.0, 1, J=1, g=8.0, d=1)
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 23, 0,
                                  domain_for_boxes([parent]))
        inter = _interaction()
        rng = np.random.default_rng(0)
        for _ in range(20):
            e = float(rng.uniform(-2, 10))
            rep = is_cnr(parent.center, 0, sched, sample, inter, sched.g, e)
            # brute force: parent NR plus every radius-3 sub-box NR
            ok = not is_resonant(
                assemble_two_particle(parent, sample, inter, sched.g).eigenvalues(),
                e, parent.radius, sched.beta)[0]
            sub_r = sched.L[0] + 1
            if ok:
                for off in Box2.of_origin(1, parent.radius - sub_r).points():
                    sub = Box2(Point2.of(off[:1], off[1:]), sub_r)
                    sub_ev = assemble_two_particle(sub, sample, inter,
                                                   sched.g).eigenvalues()
                    if is_resonant(sub_ev, e, sub_r, sched.beta)[0]:
                        ok = False
                        break
            assert rep.ok == ok


def two_radius_schedule():
    """L = (2, 7) and J = 3: CNR probes 81 boxes of radius 3 and 9 of
    radius 6."""
    return schedule(2, 2.7, 1.0, 1.0, 1, J=3, g=8.0, d=1)


def piece_sizes(monkeypatch) -> list[int]:
    """The number of boxes in every ``BoxStack.pieces`` piece built from
    now on, in order."""
    sizes = []
    pieces = operators.BoxStack.pieces

    def counted(self, rows):
        for part, h in pieces(self, rows):
            sizes.append(len(h))
            yield part, h

    monkeypatch.setattr(operators.BoxStack, "pieces", counted)
    return sizes


def assert_cnr_matches(rep, want, probe_spectra):
    """``rep``'s fields equal the oracle's ``want``.  A failed sub-box centred
    on the diagonal has its gap read from its two exchange sectors, so that
    gap is compared to 1e-12 of the box's spectral edge instead of bit for
    bit; every other field, and every field of any other report, is still
    equal."""
    got = dataclasses.asdict(rep)
    c = want["failed_center"]
    if not (want["n_checked"] > 0 and c is not None and c[:len(c) // 2] == c[len(c) // 2:]):
        assert got == want
        return
    ev = probe_spectra[1][want["n_checked"] - 1][2]
    assert got["failed_gap"] == pytest.approx(want["failed_gap"], rel=0,
                                              abs=1e-12 * np.abs(ev).max())
    assert dict(got, failed_gap=None) == dict(want, failed_gap=None)


class TestCnrMatchesPerBoxOracle:
    @pytest.mark.parametrize("sched", [desk_schedule(), two_radius_schedule()],
                             ids=["desk", "two-radius"])
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("exhaustive_limit", [CNR_EXHAUSTIVE_LIMIT, 1],
                             ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("boxes_per_chunk", [None, 1, 7])
    def test_every_report_field(self, monkeypatch, sched, adjacency,
                                exhaustive_limit, boxes_per_chunk):
        if boxes_per_chunk is not None:
            n = (2 * (sched.L[0] + 1) + 1) ** 2
            monkeypatch.setattr(operators, "STACK_BYTES", boxes_per_chunk * 8 * n * n)
        sizes = piece_sizes(monkeypatch)
        parent = Box2(Point2.of((1,), (-2,)), sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 17, 3,
                                  domain_for_boxes([parent]))
        inter = _interaction()
        kw = dict(exhaustive_limit=exhaustive_limit, sample_budget=20)
        spectra = cnr_probe_spectra(parent.center, 0, sched, sample, inter,
                                    sched.g, adjacency, **kw)
        parent_ev, probes, _, _ = spectra
        # sub-box eigenvalues the parent is not resonant with, in probe order
        width = resonance_width(sched.L[1], sched.beta)
        sub_ev = [float(e) for _, _, ev in probes for e in ev
                  if np.abs(parent_ev - e).min() >= width]
        energies = [-50.0, float(parent_ev[5])] + sub_ev[::max(1, len(sub_ev) // 4)]
        energies += list(np.random.default_rng(1).uniform(parent_ev[0], parent_ev[-1], 4))
        parent_op = assemble_two_particle(parent, sample, inter, sched.g, adjacency)
        outcomes = set()
        for e in energies:
            rep = is_cnr(parent.center, 0, sched, sample, inter, sched.g, e,
                         adjacency, parent_op=parent_op, **kw)
            assert_cnr_matches(rep, cnr_by_subbox(spectra, parent.center, 0, sched, e),
                               spectra)
            outcomes.add(rep.failed_radius)
        # passing energies, a resonant parent and resonant sub-boxes all occur
        assert {None, sched.L[1], sched.L[0] + 1} <= outcomes
        # the budget reaches the sweep's pieces
        if boxes_per_chunk is not None:
            assert max(sizes) == boxes_per_chunk, sizes


class TestCnrOrbitsMatchPerBoxOracle:
    """A parent on the diagonal probes each sub-box family's exchange images
    too; ``is_cnr`` diagonalizes one box per orbit and must still report
    what the box-by-box sweep reports."""

    @pytest.mark.parametrize("sched", [desk_schedule(), two_radius_schedule()],
                             ids=["desk", "two-radius"])
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("exhaustive_limit", [CNR_EXHAUSTIVE_LIMIT, 1],
                             ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("boxes_per_chunk", [None, 1, 7])
    def test_every_report_field(self, monkeypatch, sched, adjacency,
                                exhaustive_limit, boxes_per_chunk):
        if boxes_per_chunk is not None:
            n = (2 * (sched.L[0] + 1) + 1) ** 2
            monkeypatch.setattr(operators, "STACK_BYTES", boxes_per_chunk * 8 * n * n)
        sizes = piece_sizes(monkeypatch)
        parent = Box2(Point2.of((0,), (0,)), sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 17, 3,
                                  domain_for_boxes([parent]))
        inter = _interaction()
        kw = dict(exhaustive_limit=exhaustive_limit, sample_budget=20)
        spectra = cnr_probe_spectra(parent.center, 0, sched, sample, inter,
                                    sched.g, adjacency, **kw)
        parent_ev, probes, _, _ = spectra
        width = resonance_width(sched.L[1], sched.beta)
        # eigenvalues of exchange images, which the sweep never diagonalizes
        images = [ev for _, c, ev in probes if c[0] > c[1]]
        assert images
        sub_ev = [float(e) for ev in images for e in ev
                  if np.abs(parent_ev - e).min() >= width]
        energies = [-50.0, float(parent_ev[5])] + sub_ev[::max(1, len(sub_ev) // 4)]
        energies += list(np.random.default_rng(1).uniform(parent_ev[0], parent_ev[-1], 4))
        parent_op = assemble_two_particle(parent, sample, inter, sched.g, adjacency)
        outcomes = set()
        for e in energies:
            rep = is_cnr(parent.center, 0, sched, sample, inter, sched.g, e,
                         adjacency, parent_op=parent_op, **kw)
            assert_cnr_matches(rep, cnr_by_subbox(spectra, parent.center, 0, sched, e),
                               spectra)
            outcomes.add(rep.failed_radius)
        assert {None, sched.L[1], sched.L[0] + 1} <= outcomes
        # the budget reaches the sweep's pieces
        if boxes_per_chunk is not None:
            assert max(sizes) == boxes_per_chunk, sizes


def _planted(rng, n, E, planted):
    """A random orthogonal conjugate of a spectrum spread over [-4, 64],
    the range of a desk box at g=30, keeping clear of E by 0.5, plus the
    ``planted`` eigenvalues."""
    bulk = rng.uniform(-4, 64, size=n - len(planted))
    bulk[np.abs(bulk - E) < 0.5] += 1.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = (q * np.concatenate([bulk, planted])) @ q.T
    return (h + h.T) / 2


def _tight_discs(rng, n, E, edge):
    """A hop-plus-diagonal box of ``n >= 4`` sites whose nearest Gershgorin
    disc edge is at signed distance ``edge`` from E and is an eigenvalue: a
    4-cycle of unit hops on the constant diagonal E + edge +- 2 (spectrum
    E + edge + {0, 2, 2, 4}, or its mirror below E) beside a path whose
    discs stay at least 3 from E, in random site order."""
    hop = np.zeros((n, n))
    for i in range(4):
        hop[i, (i + 1) % 4] = hop[(i + 1) % 4, i] = 1.0
    for i in range(4, n - 1):
        hop[i, i + 1] = hop[i + 1, i] = 1.0
    far = E + rng.choice([-1.0, 1.0], n - 4) * rng.uniform(5.0, 30.0, n - 4)
    diagonal = np.concatenate([np.full(4, E + edge + math.copysign(2.0, edge)), far])
    order = rng.permutation(n)
    return (hop + np.diag(diagonal))[order][:, order]


def _counting_cholesky(monkeypatch):
    """Wrap ``numpy.linalg.cholesky``; returns the list of the stack sizes
    it is called with."""
    sizes, cholesky = [], np.linalg.cholesky

    def counted(a):
        sizes.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return sizes


class TestWindowClear:
    """``window_clear`` certifies "no eigenvalue within w of E", box by
    box, from Gershgorin discs and, for the boxes they leave, a Cholesky
    factorization; a certified box must never have an ``eigvalsh`` gap
    below w, and nothing non-finite is ever certified."""

    @pytest.mark.parametrize("n", [25, 81, 169])
    @pytest.mark.parametrize("w", [math.exp(-2.0), math.exp(-math.sqrt(12.0))])
    def test_never_clear_where_eigvalsh_finds_a_gap_below_w(self, n, w):
        rng = np.random.default_rng(n)
        E = 0.7
        planted = [E + sign * w * factor for sign in (-1, 1)
                   for factor in (1 - 1e-9, 1.0, 1 + 1e-9)]
        verdicts = {}
        for target in planted + [None]:
            for _ in range(3):
                h = _planted(rng, n, E, [] if target is None else [target])
                [clear] = window_clear(h[None].copy(), E, w)
                gap = np.abs(np.linalg.eigvalsh(h) - E).min()
                assert not (clear and gap < w), (target, gap)
                verdicts.setdefault(target, set()).add(clear)
        assert verdicts[None] == {True}  # far from the window: certified
        for target in (E - w * (1 - 1e-9), E + w * (1 - 1e-9)):
            assert verdicts[target] == {False}  # inside the window

    @pytest.mark.parametrize("n", [9, 49, 169])
    @pytest.mark.parametrize("w", [math.exp(-2.0), math.exp(-math.sqrt(12.0)), 5e-10])
    def test_disc_edge_at_the_window(self, monkeypatch, n, w):
        # the nearest disc edge is an eigenvalue at w (1 +- 1e-9) from E:
        # inside the window nothing is certified, and just outside it the
        # discs certify alone, once w 1e-9 is above their rounding margin
        rng = np.random.default_rng(n)
        E = 0.7
        sizes = _counting_cholesky(monkeypatch)
        for factor in (1 - 1e-9, 1 + 1e-9):
            for sign in (-1.0, 1.0):
                stack = [_tight_discs(rng, n, E, sign * w * factor),
                         _tight_discs(rng, n, E, 1.0 + w), _tight_discs(rng, n, E, -1.0 - w)]
                h = np.array([stack[i] for i in rng.permutation(3)])
                sizes.clear()
                clear = window_clear(h.copy(), E, w)
                gaps = np.abs(np.linalg.eigvalsh(h) - E).min(axis=1)
                assert gaps.min() == pytest.approx(w * factor, rel=1e-12)
                assert not (clear & (gaps < w)).any()
                # the boxes at 1 + w from E are certified by their discs
                assert clear[gaps > 1.0].all()
                if factor < 1:
                    assert not clear[gaps < 1.0].any() and sizes == [1]
                elif w > 1e-3:
                    assert clear.all() and sizes == []

    def test_disc_certified_stack_makes_no_cholesky_call(self, monkeypatch):
        sample = sample_potential(DistributionSpec.uniform(), 3, 0,
                                  domain_for_boxes([Box2.of_origin(1, 6)]))
        stacks = [box_family(Box2.of_origin(1, 2).points(), 4, sample, _interaction(), 30.0,
                             adjacency) for adjacency in ("sup", "l1")]
        rng = np.random.default_rng(4)
        stacks.append(np.array([_tight_discs(rng, 81, -10.0, s * 1.0) for s in (-1, 1, 1)]))

        def broken(a):
            raise AssertionError("cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", broken)
        for h in stacks:
            # every diagonal is at least 0 and every row has at most 8 hops
            assert window_clear(h, -10.0, math.exp(-2.0)).all()

    def test_mixed_stack(self, monkeypatch):
        # boxes certified by their discs, one certified by Cholesky (a dense
        # box: its discs are wide) and one resonant box
        rng = np.random.default_rng(6)
        E, w = 0.7, math.exp(-2.0)
        discs = [_tight_discs(rng, 49, E, edge) for edge in (0.5, -0.5, 2.0)]
        dense = _planted(rng, 49, E, [])
        resonant = _planted(rng, 49, E, [E + 0.5 * w])
        sizes = _counting_cholesky(monkeypatch)
        clear = window_clear(np.array(discs[:2] + [dense, resonant] + discs[2:]), E, w)
        assert clear.tolist() == [True, True, True, False, True]
        # the stack of the two boxes the discs leave does not factor, so
        # its halves are factored on their own
        assert sizes == [2, 1, 1]
        assert window_clear(np.array(discs[:2] + [dense] + discs[2:]), E, w).all()
        assert sizes == [2, 1, 1, 1]
        assert window_clear(np.array(discs[:2] + [resonant]), E, w).tolist() == [
            True, True, False]

    def test_each_box_has_its_own_verdict(self):
        rng = np.random.default_rng(5)
        E, w = 0.7, math.exp(-2.0)
        far = [_planted(rng, 49, E, []) for _ in range(4)]
        near = _planted(rng, 49, E, [E + 0.5 * w])
        assert window_clear(np.array(far), E, w).all()
        assert window_clear(np.array(far[:2] + [near] + far[2:]), E, w).tolist() == [
            True, True, False, True, True]

    @staticmethod
    def _stack(kind):
        rng = np.random.default_rng(7)
        discs = [_tight_discs(rng, 25, 0.3, edge) for edge in (1.0, -2.0)]
        dense = [_planted(rng, 25, 0.3, []) for _ in range(2)]
        return np.array({"discs": discs, "dense": dense, "mixed": discs + dense}[kind])

    @pytest.mark.parametrize("kind", ["discs", "dense", "mixed"])
    def test_input_restored_bit_for_bit(self, kind):
        h = self._stack(kind)
        before = h.copy()
        window_clear(h, 0.3, 0.1)
        assert h.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["discs", "dense", "mixed"])
    @pytest.mark.parametrize("entry", [(1, 4, 4), (1, 4, 7), (0, 24, 0)],
                             ids=["diagonal", "off-diagonal", "corner"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, kind, entry, bad):
        h = self._stack(kind)
        h[entry] = bad
        with pytest.raises(NumericError):
            window_clear(h, 0.3, 0.1)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_box_family_certified_gaps_at_least_w(self, data):
        adjacency = data.draw(st.sampled_from(["sup", "l1"]))
        g = data.draw(st.sampled_from([1.0, 5.0, 30.0]))
        radius = data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        sample = sample_potential(DistributionSpec.uniform(), seed, 0,
                                  domain_for_boxes([Box2.of_origin(1, radius + 1)]))
        h = box_family(Box2.of_origin(1, 1).points(), radius, sample, _interaction(), g,
                       adjacency)
        ev = np.linalg.eigvalsh(h)
        w = 10.0 ** data.draw(st.floats(-12.0, 0.0))
        if data.draw(st.booleans()):  # near an eigenvalue, on the scale of w
            E = float(ev.flat[data.draw(st.integers(0, ev.size - 1))]
                      + w * data.draw(st.floats(-2.0, 2.0)))
        else:
            E = data.draw(st.floats(float(ev.min()) - 5.0, float(ev.max()) + 5.0))
        clear = window_clear(h.copy(), E, w)
        assert (np.abs(ev[clear] - E).min(axis=1, initial=np.inf) >= w).all()


class TestCnrWindowFallback:
    """``is_cnr`` diagonalizes only the chunks ``window_clear`` cannot
    certify; forcing every chunk onto that path changes no report."""

    @staticmethod
    def _reports(sched, parent, sample, adjacency, energies, **kw):
        return [dataclasses.asdict(is_cnr(parent.center, 0, sched, sample, _interaction(),
                                          sched.g, e, adjacency, **kw))
                for e in energies]

    @staticmethod
    def _energies(sched, parent, sample, adjacency):
        parent_ev = assemble_two_particle(parent, sample, _interaction(), sched.g,
                                          adjacency).eigenvalues()
        sub_ev = np.linalg.eigvalsh(box_family(
            Box2.of_origin(1, sched.L[1] - sched.L[0] - 1).points(), sched.L[0] + 1,
            sample, _interaction(), sched.g, adjacency)).ravel()
        return ([-50.0, float(parent_ev[5])] + [float(e) for e in sub_ev[::97]]
                + list(np.random.default_rng(2).uniform(parent_ev[0], parent_ev[-1], 6)))

    # At the two-radius schedule's energies every family that reaches the
    # Cholesky stage is resonant, so only a window test that certifies
    # nothing sends more families to eigvalsh there.
    @pytest.mark.parametrize("sched,failure", [
        (desk_schedule(), "raises"), (desk_schedule(), "non-finite"),
        (desk_schedule(), "window_clear"), (two_radius_schedule(), "window_clear"),
    ], ids=["desk-raises", "desk-non-finite", "desk-window_clear",
            "two-radius-window_clear"])
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("exhaustive_limit", [CNR_EXHAUSTIVE_LIMIT, 1],
                             ids=["exhaustive", "sampled"])
    def test_uncertified_chunks_give_identical_reports(self, monkeypatch, sched, adjacency,
                                                      exhaustive_limit, failure):
        parent = Box2(Point2.of((0,), (1,)), sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 29, 1,
                                  domain_for_boxes([parent]))
        energies = self._energies(sched, parent, sample, adjacency)
        kw = dict(exhaustive_limit=exhaustive_limit, sample_budget=20)
        stacks, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            stacks.append(a.ndim == 3)  # a sub-box family, not the parent
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        expected = self._reports(sched, parent, sample, adjacency, energies, **kw)
        assert {r["failed_radius"] for r in expected} >= {None, sched.L[1], sched.L[0] + 1}
        certified_calls = sum(stacks)
        cholesky = np.linalg.cholesky

        def uncertified(a):
            if failure == "raises":
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            factor = cholesky(a)
            factor[..., -1, -1] = np.nan
            return factor

        if failure == "window_clear":
            monkeypatch.setattr("anderson2p.resolvent.window_clear", certify_nothing)
        else:
            monkeypatch.setattr(np.linalg, "cholesky", uncertified)
        stacks.clear()
        assert self._reports(sched, parent, sample, adjacency, energies, **kw) == expected
        # the failure sent families to eigvalsh that the window test certifies
        assert sum(stacks) > certified_calls

    def test_non_finite_family_is_never_cnr(self, desk):
        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 11, 0,
                                  domain_for_boxes([parent]))
        parent_op = assemble_two_particle(parent, sample, _interaction(), desk.g)
        assert is_cnr(parent.center, 0, desk, sample, _interaction(), desk.g, -50.0,
                      parent_op=parent_op).ok
        # a finite parent spectrum, but every sub-box has a NaN diagonal
        with pytest.raises(NumericError):
            is_cnr(parent.center, 0, desk, sample, _interaction(), math.nan, -50.0,
                   parent_op=parent_op)
        with pytest.raises(NumericError):
            is_cnr(parent.center, 0, desk, sample, _interaction(), math.nan, -50.0)

    @pytest.mark.parametrize("x1,shrink", [((0,), 1), ((1,), 0)], ids=["radius", "center"])
    def test_mismatched_parent_op_rejected(self, desk, x1, shrink):
        parent = Box2.of_origin(1, desk.L[1])
        other = Box2(Point2.of(x1, (0,)), desk.L[1] - shrink)
        sample = sample_potential(DistributionSpec.uniform(), 11, 0,
                                  domain_for_boxes([parent, other]))
        op = assemble_two_particle(other, sample, _interaction(), desk.g)
        with pytest.raises(InvalidInputError, match="parent_op"):
            is_cnr(parent.center, 0, desk, sample, _interaction(), desk.g, -50.0,
                   parent_op=op)


class TestNonTunnelling:
    def test_mass_zero_always_nt(self):
        box = Box1(Point1((0,)), 2)
        sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                                  domain_for_boxes([box]))
        ok, w = is_nontunnelling(box, sample, 5.0, 0.0)
        assert ok and w.max_product <= 1.0

    def test_free_operator_tunnels(self):
        # extended eigenvectors of the hopping-only operator carry sizable
        # center-boundary products, so a moderate mass fails at small radius
        box = Box1(Point1((0,)), 3)
        sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                                  domain_for_boxes([box]))
        ok, w = is_nontunnelling(box, sample, 0.0, 1.0)
        assert not ok
        # explicit free eigenvectors: sin profiles over n = 7 sites
        n = box.npoints
        k = np.arange(1, n + 1)
        vecs = np.sin(np.outer(k, k) * np.pi / (n + 1))
        vecs /= np.linalg.norm(vecs, axis=0)
        center, edge = n // 2, 0
        brute = np.abs(vecs[center] * vecs[edge]).max()
        assert w.max_product == pytest.approx(brute, abs=1e-10)

    def test_monotone_in_mass(self):
        box = Box1(Point1((0,)), 2)
        sample = sample_potential(DistributionSpec.uniform(), 8, 0,
                                  domain_for_boxes([box]))
        _, w = is_nontunnelling(box, sample, 30.0, 0.0)
        cap = w.cap
        for frac in (0.25, 0.5, 0.9):
            ok, _ = is_nontunnelling(box, sample, 30.0, frac * cap)
            assert ok
        ok, _ = is_nontunnelling(box, sample, 30.0, cap * 1.01 + 1e-9)
        assert not ok

    @pytest.mark.parametrize("d,radius", [(1, 1), (1, 4), (2, 1), (2, 3)])
    @pytest.mark.parametrize("g", [0.0, 5.0, 30.0])
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_witness_equals_eigenvector_products(self, d, radius, g, adjacency):
        # the largest residue is the largest product of diagonalize's
        # eigenvectors, with the same state and point
        box = Box1(Point1((2,) * d), radius)
        for seed in (1, 2):
            sample = sample_potential(DistributionSpec.uniform(), seed, 0,
                                      domain_for_boxes([box]))
            got = is_nontunnelling(box, sample, g, 1.0, adjacency)
            assert got == nontunnelling_by_eigenvectors(box, sample, g, 1.0, adjacency)

    def test_degenerate_radius_zero(self):
        box = Box1(Point1((3,)), 0)
        sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                                  np.array([[3]]))
        ok, w = is_nontunnelling(box, sample, 1.0, 5.0)
        assert ok and w.degenerate


class TestNtToNs:
    def test_discount_arithmetic(self):
        # radius 100, beta 1/2, one dimension
        val = nt_decay_discount(100, 0.5, 1)
        assert val == pytest.approx(1 - 0.1 - math.log(201**2) / 100)
        assert 1.0 * val == pytest.approx(0.79392, abs=1e-4)

    def test_simplified_bound(self):
        # whenever ln((2L+1)^{2d})/L <= L^{beta-1}, the discount is at least
        # 1 - 2 L^{beta-1}
        for L in (9, 20, 100, 1000):
            if math.log((2 * L + 1) ** 2) / L <= L ** (-0.5):
                assert nt_decay_discount(L, 0.5, 1) >= 1 - 2 * L ** (-0.5)

    def test_size_condition_first_holds_at_nine(self):
        assert not nt_size_condition(8, 0.5, 1)
        assert nt_size_condition(9, 0.5, 1)

    def test_hypothesis_failure_skips(self):
        box, sample = box_with_sample(Point2.of((0,), (30,)), 9, seed=2)
        rep = nt_to_ns_check(box, sample, _interaction(), 2.0, 0.0, 50.0, 0.5)
        assert rep.skipped  # mass 50 NT cannot hold for a real sample

    def test_radius_zero_rejected_before_any_work(self, monkeypatch):
        # nt_size_condition and nt_decay_discount divide by the radius; the
        # check raised ZeroDivisionError from the first of them
        box, sample = box_with_sample(Point2.of((0,), (5,)), 0, seed=2)

        def no_work(*args, **kwargs):
            raise AssertionError("work done before the radius was checked")

        monkeypatch.setattr(classify, "single_particle_factors", no_work)
        with pytest.raises(PreconditionError,
                           match="radius at least 1, got radius 0"):
            nt_to_ns_check(box, sample, _interaction(), 2.0, 0.0, 1.0, 0.5)

    def test_implication_on_seeded_batch(self):
        from anderson2p.operators import single_particle_factors

        rng = np.random.default_rng(77)
        inter = _interaction()
        g = 25.0
        L = 9
        n_ok = 0
        for s in range(60):
            off = int(rng.integers(2 * L + 2, 5 * L))
            box = Box2(Point2.of((0,), (off,)), L)
            sample = sample_potential(DistributionSpec.uniform(), 1000 + s, 0,
                                      domain_for_boxes([box]))
            # sharpest mass still satisfying both non-tunnelling hypotheses
            _, w1 = is_nontunnelling(Box1(box.center.x1, L), sample, g, 1.0, "l1")
            _, w2 = is_nontunnelling(Box1(box.center.x2, L), sample, g, 1.0, "l1")
            # a hair under the cap so the threshold comparison is not an
            # exact floating-point tie
            m_hat = min(w1.cap, w2.cap) * (1.0 - 1e-9)
            if m_hat < 1.0:
                continue
            # energy at the midpoint of a wide interior spectral gap, so the
            # non-resonance hypothesis verifies on most instances
            op1, op2 = single_particle_factors(box, sample, g, "l1")
            sums = np.sort(np.add.outer(op1.eigenvalues(),
                                        op2.eigenvalues()).ravel())
            gaps = np.diff(sums)
            j = int(np.argmax(gaps[5:-5])) + 5
            e = float(0.5 * (sums[j] + sums[j + 1]))
            rep = nt_to_ns_check(box, sample, inter, g, e, m_hat, 0.5, "l1")
            if rep.skipped:
                continue
            assert rep.ns_ok, f"deterministic decay step failed: {rep}"
            n_ok += 1
        assert n_ok >= 40

    @pytest.mark.parametrize("adjacency", ["l1", "sup"])
    def test_ns_step_without_the_box_spectrum(self, monkeypatch, adjacency):
        """Under ``l1`` a tensor-sum gap that clears the solver guard
        decides the NS step without the box's ``eigvalsh``; under ``sup``
        the sums are not the box's spectrum and ``is_ns`` diagonalizes.
        Either way the report is ``is_ns``'s."""
        L, g = 9, 30.0  # the CLI's ``nt-to-ns`` defaults
        rng = np.random.default_rng(78)
        instances = []
        for s in range(12):
            box = Box2(Point2.of((0,), (int(rng.integers(2 * L + 2, 5 * L)),)), L)
            sample = sample_potential(DistributionSpec.uniform(), 2000 + s, 0,
                                      domain_for_boxes([box]))
            instances.append((box, sample, _interaction(), g, float(rng.uniform(-1, 1)),
                              1.0, 0.5, adjacency))
        with monkeypatch.context() as m:
            m.setattr(classify, "_tensor_sum_error", lambda *a: math.inf)
            want = [nt_to_ns_check(*args) for args in instances]
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert [nt_to_ns_check(*args) for args in instances] == want
        verified = sum(not rep.skipped for rep in want)
        assert verified >= 6
        assert sizes.count((2 * L + 1) ** 2) == (0 if adjacency == "l1" else verified)


class TestClassifyReport:
    def test_flags_reproducible_from_witnesses(self, desk):
        box = Box2.of_origin(1, 3)
        sample = sample_potential(DistributionSpec.uniform(), 21, 0,
                                  domain_for_boxes([box]))
        rep = classify_box(box, sample, _interaction(), desk.g, 1.0, 0.5,
                           nt_mass=1.0)
        assert rep.ns == (rep.max_boundary_gf <= math.exp(-0.5 * box.radius))
        assert rep.resonant == (rep.gap < resonance_width(box.radius, rep.beta))
        assert rep.nt == (rep.nt_max_product <= math.exp(-rep.nt_mass * box.radius))
        assert rep.interactive  # diagonal center
        rec = rep.to_record()
        assert rec["kind"] == "classification"
