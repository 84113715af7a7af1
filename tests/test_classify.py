import dataclasses
import math

import numpy as np
import pytest

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
    singular_at_spectral,
    singular_mask_at,
)
from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.errors import InvalidInputError
from anderson2p.geometry import Box1, Box2, Point1, Point2
from anderson2p.msa import desk_schedule, schedule
from anderson2p.operators import assemble_two_particle, box_family

from .conftest import box_with_sample
from .oracles import (
    cnr_by_subbox,
    cnr_probe_spectra,
    dense_inverse_green,
    grid_resonant_pair,
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


class TestExistsResonantPair:
    def test_identical_spectra(self):
        ev = np.array([0.0, 1.0, 2.0])
        hit, wit = exists_resonant_pair(ev, ev, (-0.5, 2.5), 3, 0.5)
        assert hit and wit[0] == wit[1]

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


def _family_spectra(radius, half_width, g=5.0, adjacency="sup"):
    """Eigendecompositions of the radius-``radius`` boxes centred in the
    cube of half-width ``half_width`` around the origin (d = 1)."""
    centers = Box2.of_origin(1, half_width).points()
    sample = sample_potential(DistributionSpec.uniform(), 5, 2, domain_for_boxes(
        [Box2.of_origin(1, radius + half_width)]))
    ev, q = np.linalg.eigh(box_family(centers, radius, sample, _interaction(), g,
                                      adjacency))
    template = Box2.of_origin(1, radius)
    return ev, q, template.center_index(), template.boundary_indices(), radius


class TestSingularMask:
    """``singular_mask_at`` over an energy array equals one call per energy,
    whatever the energy block."""

    @pytest.mark.parametrize("case", ["stack", "one-box", "radius-0"])
    @pytest.mark.parametrize("block", [None, 1, 4])
    def test_energy_array_matches_per_energy_calls(self, monkeypatch, case, block):
        ev, q, ci, bidx, radius = _family_spectra(0 if case == "radius-0" else 2, 2)
        if case == "one-box":
            ev, q = ev[:1], q[:1]
        ncand, n = ev.shape
        if block is not None:
            monkeypatch.setattr(classify, "MASK_BYTES", block * 8 * ncand * n)
        # 23 energies, not a multiple of either block; exact eigenvalues included
        grid = np.concatenate([np.linspace(-1.5, 1.5, 20), ev[0, [0, n // 2, -1]]])
        mask = singular_mask_at(ev, q, ci, bidx, radius, grid, 0.5)
        per_energy = np.stack([singular_mask_at(ev, q, ci, bidx, radius, float(E), 0.5)
                               for E in grid])
        assert mask.shape == (len(grid), ncand)
        assert np.array_equal(mask, per_energy)
        assert mask[-3:, 0].all()  # an eigenvalue of box 0 is singular for it
        if case == "stack":
            assert not mask.all()

    def test_single_box_agrees_with_is_ns(self):
        ev, q, ci, bidx, radius = _family_spectra(2, 0)
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
            monkeypatch.setattr(operators, "FAMILY_BYTES", boxes_per_chunk * 8 * n * n)
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
            assert dataclasses.asdict(rep) == cnr_by_subbox(
                spectra, parent.center, 0, sched, e), e
            outcomes.add(rep.failed_radius)
        # passing energies, a resonant parent and resonant sub-boxes all occur
        assert {None, sched.L[1], sched.L[0] + 1} <= outcomes


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
