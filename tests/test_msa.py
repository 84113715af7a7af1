import dataclasses
import math

import numpy as np
import pytest

from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.errors import InfeasibleScheduleError, InvalidInputError, NumericError
from anderson2p.geometry import Box2, Point2, pair_separation
from anderson2p.msa import (
    count_singular_subboxes,
    desk_schedule,
    inductive_ns_step,
    mass_step_value,
    max_separated_subset,
    asymptotic_schedule,
    packing_ceiling,
    schedule,
    subbox_spectra,
    validate_parameters,
)
from anderson2p.operators import box_family

from .conftest import duplicated_eigenpair, random_point2
from .oracles import (
    check_passed,
    counter_report_by_spectra,
    exhaustive_separated_subset,
    subbox_mask_all_boxes,
)


def _interaction():
    return InteractionSpec.triangular(1, 1.0)


class TestSchedule:
    def test_exact_power(self):
        s = schedule(4, 1.5, 0.5, 1.0, 2)
        assert s.L[1] == 8

    def test_ceiling(self):
        s = schedule(4, 1.5, 0.5, 1.0, 2)
        assert s.L[2] == 23  # ceil(4**2.25) = ceil(22.627)

    def test_gamma_forty_needs_large_l1(self):
        with pytest.raises(InfeasibleScheduleError) as exc:
            schedule(100, 1.5, 40.0, 1.0, 1)
        assert exc.value.k == 1

    def test_gamma_forty_l1_boundary(self):
        # mass factor 1 - 40/sqrt(L1) is positive only for L1 > 1600
        with pytest.raises(InfeasibleScheduleError):
            schedule(136, 1.5, 40.0, 1.0, 1)  # ceil(136**1.5) = 1587 <= 1600
        ok = schedule(137, 1.5, 40.0, 1.0, 1)  # ceil(137**1.5) = 1604 > 1600
        assert ok.m[1] > 0

    def test_masses_positive_decreasing(self):
        s = desk_schedule(k_max=3)
        assert all(a > b for a, b in zip(s.m, s.m[1:]))
        assert all(m > 0 for m in s.m)

    def test_lengths_increasing(self):
        s = desk_schedule(k_max=3)
        assert all(b > a for a, b in zip(s.L, s.L[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            schedule(1, 1.5, 1.0, 1.0, 1)
        with pytest.raises(InvalidInputError):
            schedule(3, 1.0, 1.0, 1.0, 1)
        with pytest.raises(InvalidInputError):
            schedule(3, 1.5, 1.0, -1.0, 1)
        with pytest.raises(InvalidInputError):
            schedule(3, 1.5, 1.0, 1.0, 1, J=4)

    def test_mass_limit_above_half_when_product_passes(self):
        s = asymptotic_schedule()
        rep = validate_parameters(s)
        assert check_passed(rep, "mass_product_half")
        # evaluate the product deep: it should stay above 1/2
        prod = 1.0
        for j in range(1, 51):
            expo = 0.5 * (1.5**j) * math.log(s.L0)
            prod *= 1.0 - (40.0 * math.exp(-expo) if expo < 700 else 0.0)
        assert prod >= 0.5


class TestMassStep:
    def test_half_factor(self):
        assert mass_step_value(1.0, 5202, 9) == pytest.approx(0.5)

    def test_large_scale(self):
        assert mass_step_value(1.0, 10**6, 9) == pytest.approx(1 - 0.036062, abs=1e-5)

    def test_step_constant_below_gamma(self):
        assert (5 * 9 + 6) / math.sqrt(2) < 40


class TestValidateParameters:
    def test_asymptotic_preset_passes(self):
        rep = validate_parameters(asymptotic_schedule())
        assert rep.asymptotic_regime
        assert check_passed(rep, "p_large")  # 22 > 21
        assert check_passed(rep, "q_vs_p")  # 101 > 100

    def test_desk_preset_flagged(self):
        rep = validate_parameters(desk_schedule())
        assert not rep.asymptotic_regime
        assert not check_passed(rep, "gamma_forty")

    def test_alpha_at_most_one_fails(self):
        # alpha <= 1 is rejected at construction, the earliest gate
        with pytest.raises(InvalidInputError):
            schedule(3, 0.9, 1.0, 1.0, 1)

    def test_record_round_trip_shape(self):
        rec = validate_parameters(desk_schedule()).to_record()
        assert rec["kind"] == "parameter_report"
        assert {c["status"] for c in rec["checks"]} <= {"pass", "fail", "skipped"}


class TestMaxSeparatedSubset:
    def test_empty(self):
        assert max_separated_subset([], 8) == (0, [], True)

    def test_single(self):
        c = Point2.of((0,), (0,))
        size, chosen, exact = max_separated_subset([c], 8)
        assert size == 1 and chosen == [0] and exact

    def test_two_close_centers(self):
        a = Point2.of((0,), (0,))
        b = Point2.of((3,), (0,))
        size, _, _ = max_separated_subset([a, b], 8)
        assert size == 1

    def test_exchange_image_conflicts(self):
        a = Point2.of((0,), (50,))
        b = Point2.of((50,), (0,))  # exchange image of a
        size, _, _ = max_separated_subset([a, b], 4)
        assert size == 1

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(0, 13))
            centers = [random_point2(rng, 1, 40) for _ in range(n)]
            sep = int(rng.integers(4, 40))
            size, chosen, exact = max_separated_subset(centers, sep)
            assert exact
            oracle = exhaustive_separated_subset([c.flat for c in centers], sep)
            assert size == oracle
            # chosen witnesses actually satisfy the separation
            for i, a in enumerate(chosen):
                for b in chosen[i + 1:]:
                    assert pair_separation(centers[a], centers[b]) > sep

    def test_packing_ceiling_of_one_skips_the_search(self, monkeypatch):
        # the desk k=0 counter in d=2: 7^4 candidate centers, separation
        # 8 * L_0 = 24; one cell of side 25 covers them all
        def refuse(*args):
            raise AssertionError("conflict matrix built")

        monkeypatch.setattr("anderson2p.kernels.pairwise_dist", refuse)
        centers = Box2.of_origin(2, 3).points()
        assert len(centers) == 2401
        assert max_separated_subset(centers, 24) == (1, [0], True)


class TestPackingCeiling:
    @pytest.mark.parametrize("L_k,L_next,ceiling", [
        (3, 6, 1), (6, 12, 1),  # desk counters
        (2, 12, 3),  # 2 cells per axis: 4 cell pairs, (A, B) ~ (B, A)
        (2, 32, 10),  # 4 cells per axis: 16 cell pairs, 10 up to exchange
    ])
    def test_parent_at_origin(self, L_k, L_next, ceiling):
        centers = Box2.of_origin(1, L_next - L_k).points()
        assert packing_ceiling(centers, 8 * L_k) == ceiling

    def test_disjoint_particle_ranges_keep_the_box_ceiling(self):
        # x1 in [0, 20], x2 in [100, 120]: the box has 2 x 2 cells of side
        # 17, while the grid shared by both particles has 8 per axis
        centers = Box2(Point2.of((10,), (110,)), 10).points()
        assert packing_ceiling(centers, 16) == 4

    def test_cells_are_as_wide_as_the_separation_allows(self):
        # sup distance 17 > 16 in x1 alone: two cells of side 17, K = 2
        centers = np.array([[0, 0], [17, 0]])
        assert max_separated_subset(centers, 16)[0] == 2
        assert packing_ceiling(centers, 16) == 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_never_below_the_largest_family(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            sep = int(rng.integers(2, 25))
            # spreads of one to four cells per coordinate
            centers = [random_point2(rng, d, int(rng.integers(sep // 2, 2 * sep + 2)))
                       for _ in range(n)]
            flat = np.array([c.flat for c in centers])
            assert packing_ceiling(flat, sep) >= exhaustive_separated_subset(
                [c.flat for c in centers], sep)


class TestSubboxSpectra:
    @staticmethod
    def _sample(sched, k, center, seed):
        return sample_potential(DistributionSpec.uniform(), seed, 0,
                                domain_for_boxes([Box2(center, sched.L[k + 1])]))

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("sched,k", [
        (desk_schedule(g=5.0), 0), (desk_schedule(g=30.0), 0),
        (desk_schedule(g=5.0), 1), (schedule(2, 3.5, 1.0, 0.5, 1, g=5.0, d=1), 0),
    ], ids=["desk-k0-g5", "desk-k0-g30", "desk-k1-g5", "L2-12-g5"])
    def test_mask_equals_every_box_diagonalized(self, sched, k, adjacency):
        center = Point2.of((0,), (0,))
        energies = np.linspace(-3.0, 2 * sched.g + 3.0, 101)
        seen = set()
        for seed in (1, 2):
            sample = self._sample(sched, k, center, seed)
            spectra = subbox_spectra(center, k, sched, sample, _interaction(),
                                     sched.g, adjacency)
            n_side = 2 * (sched.L[k + 1] - sched.L[k]) + 1
            assert len(spectra.poles) == (n_side**2 + n_side) // 2
            mask = spectra.mask(energies, sched.m[k])
            want = subbox_mask_all_boxes(center, k, sched, sample, _interaction(),
                                         sched.g, adjacency, energies, sched.m[k])
            assert np.array_equal(mask, want)
            assert np.array_equal(spectra.mask(float(energies[40]), sched.m[k]),
                                  want[40])
            seen |= set(np.unique(mask).tolist())
        assert seen == {False, True}

    def test_off_diagonal_parent_diagonalizes_every_box(self):
        sched = desk_schedule(g=5.0)
        center = Point2.of((30,), (-30,))
        sample = self._sample(sched, 0, center, 4)
        spectra = subbox_spectra(center, 0, sched, sample, _interaction(),
                                 sched.g, "sup")
        assert np.array_equal(spectra.orbit, np.arange(len(spectra.centers)))
        energies = np.linspace(-3.0, 13.0, 101)
        want = subbox_mask_all_boxes(center, 0, sched, sample, _interaction(),
                                     sched.g, "sup", energies, sched.m[0])
        assert np.array_equal(spectra.mask(energies, sched.m[0]), want)

    def test_residual_checked(self, monkeypatch):
        sched = desk_schedule(g=5.0)
        center = Point2.of((0,), (0,))
        sample = self._sample(sched, 0, center, 1)
        args = (center, 0, sched, sample, _interaction(), sched.g, "sup")
        subbox_spectra(*args)
        eigh = np.linalg.eigh

        def perturbed(a):
            ev, q = eigh(a)
            q[-1, 0] += 1e-4  # one entry of the last representative
            return ev, q

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericError, match="residual"):
            subbox_spectra(*args)

    def test_orthonormality_checked(self, monkeypatch):
        sched = desk_schedule(g=5.0)
        center = Point2.of((0,), (0,))
        sample = self._sample(sched, 0, center, 1)
        monkeypatch.setattr(np.linalg, "eigh", duplicated_eigenpair(np.linalg.eigh))
        with pytest.raises(NumericError, match="not orthonormal"):
            subbox_spectra(center, 0, sched, sample, _interaction(), sched.g, "sup")


class TestSingleEnergyCounter:
    """``count_singular_subboxes`` decides each exchange orbit by one solve
    at E, not by an eigendecomposition."""

    @staticmethod
    def _sample(sched, k, center, seed):
        return sample_potential(DistributionSpec.uniform(), seed, 0,
                                domain_for_boxes([Box2(center, sched.L[k + 1])]))

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("sched,k,n_random", [
        (desk_schedule(g=5.0), 0, 8), (desk_schedule(g=5.0), 1, 3),
        (schedule(2, 3.5, 1.0, 0.5, 1, g=5.0, d=1), 0, 8),
    ], ids=["desk-k0", "desk-k1", "L2-12"])
    def test_verdicts_equal_every_box_diagonalized(self, sched, k, n_random,
                                                   adjacency):
        center = Point2.of((0,), (0,))
        inter = _interaction()
        L_k = sched.L[k]
        sample = self._sample(sched, k, center, 3)
        centers = Box2(center, sched.L[k + 1] - L_k).points()
        ev = np.linalg.eigvalsh(box_family(centers, L_k, sample, inter, sched.g,
                                           adjacency))
        rng = np.random.default_rng(k)
        # random energies, then exact sub-box eigenvalues (the guard path)
        energies = list(rng.uniform(-1.0, 2 * sched.g + 1.0, n_random))
        energies += [float(ev[0, 0]), float(ev[len(ev) // 2, ev.shape[1] // 2])]
        masks = subbox_mask_all_boxes(center, k, sched, sample, inter, sched.g,
                                      adjacency, np.array(energies), sched.m[k])
        interactive = np.abs(centers[:, :1] - centers[:, 1:]).max(axis=1) <= 2 * L_k + 1
        seen = set()
        for E, mask in zip(energies, masks):
            rep = count_singular_subboxes(center, k, sched, sample, inter, sched.g,
                                          E, adjacency)
            assert rep.singular_ni == [tuple(c) for c in centers[mask & ~interactive]]
            assert rep.singular_i == [tuple(c) for c in centers[mask & interactive]]
            seen |= set(mask.tolist())
        assert masks[-2, 0] and masks[-1, len(ev) // 2]
        assert seen == {False, True}

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("sched,center", [
        (desk_schedule(g=5.0), Point2.of((0,), (0,))),
        (desk_schedule(g=30.0), Point2.of((0,), (0,))),
        (desk_schedule(g=5.0), Point2.of((30,), (-30,))),
        (schedule(2, 3.5, 1.0, 0.5, 1, g=5.0, d=1), Point2.of((0,), (0,))),
    ], ids=["desk-g5", "desk-g30", "desk-off-diagonal", "L2-12"])
    def test_every_field_equals_the_spectral_path(self, sched, center, adjacency):
        rng = np.random.default_rng(3)
        inter = _interaction()
        counts = set()
        for seed in (1, 2, 3):
            sample = self._sample(sched, 0, center, seed)
            for E in rng.uniform(-1.0, 2 * sched.g + 1.0, 4).tolist():
                got = count_singular_subboxes(center, 0, sched, sample, inter,
                                              sched.g, E, adjacency)
                want = counter_report_by_spectra(center, 0, sched, sample, inter,
                                                 sched.g, E, adjacency)
                assert dataclasses.asdict(got) == dataclasses.asdict(want), E
                counts.add(len(got.singular_ni) + len(got.singular_i))
        assert len(counts) > 1

    def test_solve_residual_checked(self, monkeypatch):
        sched = desk_schedule(g=5.0)
        center = Point2.of((0,), (0,))
        args = (center, 0, sched, self._sample(sched, 0, center, 1), _interaction(),
                sched.g, 0.7)
        count_singular_subboxes(*args)
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[-1, 0] += 1e-4 * np.linalg.norm(x[-1])  # the last solved box only
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericError, match="residual"):
            count_singular_subboxes(*args)


class TestCounters:
    @staticmethod
    def _subset_schedule():
        # alpha large enough that distinct sub-boxes can be separated
        return schedule(2, 3.5, 0.5, 1.0, 1, g=6.0, d=1)

    def test_no_singular_candidates(self, desk):
        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 5, 0,
                                  domain_for_boxes([parent]))
        rep = count_singular_subboxes(parent.center, 0, desk, sample,
                                      _interaction(), desk.g, -90.0)
        assert (rep.M, rep.N, rep.K) == (0, 0, 0)
        assert rep.n_candidates == (2 * (desk.L[1] - desk.L[0]) + 1) ** 2

    def test_k_between_m_n_bounds(self):
        sched = self._subset_schedule()
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 31, 0,
                                  domain_for_boxes([parent]))
        rng = np.random.default_rng(0)
        for _ in range(10):
            e = float(rng.uniform(0, 10))
            rep = count_singular_subboxes(parent.center, 0, sched, sample,
                                          _interaction(), sched.g, e)
            assert rep.K <= rep.M + rep.N
            assert max(rep.M, rep.N) <= rep.K
            assert rep.K <= len(rep.singular_ni) + len(rep.singular_i)

    def test_witness_separation(self):
        sched = self._subset_schedule()
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 8, 0,
                                  domain_for_boxes([parent]))
        rep = count_singular_subboxes(parent.center, 0, sched, sample,
                                      _interaction(), sched.g, 2.0)
        pts = [Point2.of(w[:1], w[1:]) for w in rep.witnesses_all]
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                assert pair_separation(a, b) > rep.separation

    def test_large_singular_set_counted_exactly(self):
        # 137 singular candidates with at most 3 pairwise separated; picking
        # candidates by fewest conflicts finds only 2
        sched = schedule(2, 3.5, 1.0, 0.5, 1, g=5.0, d=1)
        parent = Box2.of_origin(1, 12)
        sample = sample_potential(DistributionSpec.uniform(), 101, 0,
                                  domain_for_boxes([parent]))
        E = float(np.linspace(-1, 1, 101)[53])
        rep = count_singular_subboxes(parent.center, 0, sched, sample,
                                      InteractionSpec.triangular(1), sched.g, E,
                                      "sup")
        assert len(rep.singular_ni) + len(rep.singular_i) == 137
        assert rep.K == 3 and rep.exact
        assert rep.witnesses_all == [(-10, 9), (-8, -8), (7, 9)]
        pts = [Point2.of(w[:1], w[1:]) for w in rep.witnesses_all]
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                assert pair_separation(a, b) > rep.separation

    def test_exact_matches_exhaustive(self):
        inter = _interaction()
        rng = np.random.default_rng(100)
        checked = nonzero = 0
        for s in range(80):
            g = float(rng.choice([12.0, 15.0, 20.0, 30.0]))
            sched = schedule(2, 3.5, 0.5, 1.0, 1, g=g, d=1)
            parent = Box2.of_origin(1, sched.L[1])
            sample = sample_potential(DistributionSpec.uniform(), 500 + s, 0,
                                      domain_for_boxes([parent]))
            e = float(rng.uniform(-1, 8))
            rep = count_singular_subboxes(parent.center, 0, sched, sample,
                                          inter, sched.g, e)
            n_sing = len(rep.singular_ni) + len(rep.singular_i)
            if not rep.exact or n_sing > 12:
                continue
            oracle_k = exhaustive_separated_subset(
                rep.singular_ni + rep.singular_i, rep.separation)
            oracle_m = exhaustive_separated_subset(rep.singular_ni, rep.separation)
            oracle_n = exhaustive_separated_subset(rep.singular_i, rep.separation)
            assert (rep.M, rep.N, rep.K) == (oracle_m, oracle_n, oracle_k)
            checked += 1
            nonzero += n_sing > 0
        assert checked >= 20 and nonzero >= 5


class TestInductiveStep:
    def test_skipped_when_hypotheses_fail(self, desk):
        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 3, 0,
                                  domain_for_boxes([parent]))
        op_ev = None
        from anderson2p.operators import assemble_two_particle

        op = assemble_two_particle(parent, sample, _interaction(), desk.g)
        e = float(op.eigenvalues()[10])  # resonant: CNR must fail
        rep = inductive_ns_step(parent.center, 0, desk, sample, _interaction(),
                                desk.g, e)
        assert rep.skipped and not rep.cnr_ok

    def test_satisfying_instances_are_ns(self, desk):
        rng = np.random.default_rng(50)
        inter = _interaction()
        n_ok = 0
        for s in range(25):
            sample = sample_potential(DistributionSpec.uniform(), 900 + s, 0,
                                      domain_for_boxes([Box2.of_origin(1, desk.L[1])]))
            e = float(rng.uniform(-2.0, 6.0))
            rep = inductive_ns_step(Point2.of((0,), (0,)), 0, desk, sample,
                                    inter, desk.g, e)
            if rep.skipped:
                continue
            assert rep.ns_ok
            assert rep.assert_mass == pytest.approx(desk.m[1])  # desk fallback
            assert rep.mass_bound <= 0  # raw bound degenerates at this scale
            n_ok += 1
        assert n_ok >= 10

    def test_counter_never_exceeds_candidates(self, desk):
        sample = sample_potential(DistributionSpec.uniform(), 4, 0,
                                  domain_for_boxes([Box2.of_origin(1, desk.L[1])]))
        rep = count_singular_subboxes(Point2.of((0,), (0,)), 0, desk, sample,
                                      _interaction(), desk.g, 1.0)
        assert rep.K <= rep.n_candidates
