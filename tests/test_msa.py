import dataclasses
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from anderson2p import blas, cli, msa, operators, resolvent
from anderson2p.classify import cnr_subbox_layout, cnr_sweeps, is_cnr
from anderson2p.config import ExperimentConfig
from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.errors import InfeasibleScheduleError, InvalidInputError, NumericError
from anderson2p.geometry import Box2, Point2, pair_separation
from anderson2p.msa import (
    count_singular_subboxes,
    desk_schedule,
    inductive_ns_step,
    inductive_ns_steps,
    mass_step_value,
    max_separated_subset,
    asymptotic_schedule,
    packing_ceiling,
    schedule,
    singular_subbox_counts,
    subbox_spectra,
    validate_parameters,
)
from anderson2p.operators import assemble_two_particle, box_family

from .conftest import certify_nothing, duplicated_eigenpair, random_point2
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


def _inductive_instances(adjacency):
    """Arguments of ``inductive_ns_step`` in the benchmark's ``inductive``
    configuration (``msa-verify --check inductive-step``, d=1, g=30) under
    ``adjacency``: the CLI's seed 0 at configuration seeds 7000-7015."""
    instances = []
    for seed in range(7000, 7016):
        cfg = ExperimentConfig.from_dict({"dimension": 1, "adjacency": adjacency,
                                          "g": 30, "seed": seed})
        sched = cfg.build_schedule()
        parent = Box2.of_origin(1, sched.L[1])
        rng = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
        sample = sample_potential(cfg.distribution_spec(), seed, 0,
                                  domain_for_boxes([parent]))
        energy = float(rng.uniform(*cfg.interval))
        instances.append((parent.center, 0, sched, sample, cfg.interaction_spec(),
                          cfg.g, energy, cfg.adjacency))
    return instances


class TestCertifiedCounterGuard:
    """The counter step's solver guard comes from ``window_clear`` at
    ``resolvent.guard_width``, not from a stacked ``eigvalsh``; a stack it
    cannot certify is diagonalized, with the same report."""

    @staticmethod
    def _reports(sched, adjacency):
        center = Point2.of((0,), (0,))
        inter = _interaction()
        L_k = sched.L[0]
        out = []
        for seed in (1, 2, 3):
            sample = TestSingleEnergyCounter._sample(sched, 0, center, seed)
            ev = np.linalg.eigvalsh(box_family(Box2(center, sched.L[1] - L_k).points(),
                                               L_k, sample, inter, sched.g, adjacency))
            # random energies, then a sub-box eigenvalue (the guard path)
            energies = np.random.default_rng(seed).uniform(-1.0, 2 * sched.g + 1.0, 3)
            for E in [*energies.tolist(), float(ev[seed, 5])]:
                out.append(count_singular_subboxes(center, 0, sched, sample, inter,
                                                   sched.g, E, adjacency))
        return out

    @staticmethod
    def _counted_reports(monkeypatch, sched, adjacency):
        """The reports, and the number of ``eigvalsh`` calls they made."""
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", counted)
            reports = TestCertifiedCounterGuard._reports(sched, adjacency)
        # ``_reports`` diagonalizes one family per seed to pick its energies
        return reports, len(calls) - 3

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("g", [5.0, 30.0])
    @pytest.mark.parametrize("failure", ["window_clear", "cholesky"])
    def test_uncertified_gives_the_same_reports(self, monkeypatch, adjacency, g, failure):
        sched = desk_schedule(g=g)
        want, certified_calls = self._counted_reports(monkeypatch, sched, adjacency)
        if failure == "window_clear":
            monkeypatch.setattr("anderson2p.resolvent.window_clear", certify_nothing)
        else:
            def fail(a):
                raise np.linalg.LinAlgError("not positive definite")
            monkeypatch.setattr(np.linalg, "cholesky", fail)
        got, calls = self._counted_reports(monkeypatch, sched, adjacency)
        assert got == want
        # the failure sent stacks to eigvalsh that the window test certifies
        assert calls > certified_calls
        assert any(rep.singular_ni or rep.singular_i for rep in want)

    def test_inductive_seeds_need_no_eigvalsh(self, monkeypatch):
        """The counter step of the benchmark's ``inductive`` configuration
        at seeds 7000-7015 runs with ``eigvalsh`` broken: every stack is
        certified."""
        instances = _inductive_instances("l1")
        want = [count_singular_subboxes(*args) for args in instances]

        def broken(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", broken)
        assert [count_singular_subboxes(*args) for args in instances] == want


class TestDominanceCertifiedCounter:
    """``singular_subbox_counts`` certifies the strictly dominant sub-boxes
    non-singular by ``resolvent.dominance_certified`` and leaves the window
    test and the solve to the rest; its reports are those of the solve
    alone."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("g,adjacency", [(30.0, "l1"), (5.0, "sup")],
                             ids=["g30-l1", "g5-sup"])
    def test_reports_equal_with_nothing_certified(self, monkeypatch, k, g, adjacency):
        sched = desk_schedule(g=g)
        center, samples, energies = _batch(sched, k, adjacency,
                                           range(40, 52) if k == 0 else range(80, 84))
        args = (center, k, sched, samples, energies, _interaction(), g, adjacency)
        certified, dominance_certified = [], resolvent.dominance_certified

        def counted(*a):
            verdicts = dominance_certified(*a)
            certified.append(int(verdicts.sum()))
            return verdicts

        monkeypatch.setattr(msa, "dominance_certified", counted)
        got = singular_subbox_counts(*args)
        monkeypatch.setattr(msa, "dominance_certified",
                            lambda stack, *a: np.zeros(len(stack), dtype=bool))
        want = singular_subbox_counts(*args)
        assert [dataclasses.asdict(r) for r in got] == [dataclasses.asdict(r) for r in want]
        assert (sum(certified) > 0) == (g == 30.0)
        if k == 0:
            assert any(r.singular_ni or r.singular_i for r in want)

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_every_box_certified(self, monkeypatch, adjacency):
        """Below every disc all sub-boxes are certified, and the window
        test and the solve get an empty stack."""
        sched = desk_schedule(g=30.0)
        center = Point2.of((0,), (0,))
        args = (center, 0, sched, TestSingleEnergyCounter._sample(sched, 0, center, 5),
                _interaction(), sched.g, -20.0, adjacency)
        sizes, boundary_green_maxima = [], resolvent.boundary_green_maxima

        def sized(h, *a):
            sizes.append(len(h))
            return boundary_green_maxima(h, *a)

        monkeypatch.setattr(msa, "boundary_green_maxima", sized)
        got = count_singular_subboxes(*args)
        monkeypatch.setattr(msa, "dominance_certified",
                            lambda stack, *a: np.zeros(len(stack), dtype=bool))
        assert got == count_singular_subboxes(*args)
        assert sizes[0] == 0 and sizes[1] == 28
        assert not (got.singular_ni or got.singular_i)

    def test_inductive_seeds_certify_every_dominant_box(self):
        """At seeds 7000-7015 of the benchmark's ``inductive``
        configuration, every sub-box whose discs clear its solver guard is
        certified within its 4 L + 2 steps: about three quarters of
        them."""
        dominant_boxes = boxes = 0
        for center, k, sched, sample, inter, g, E, adjacency in _inductive_instances("l1"):
            stack = msa._subbox_family(center, k, sched, [sample], inter, g, adjacency)[3]
            tpl = Box2.of_origin(center.d, sched.L[k])
            e = np.full(len(stack), E)
            dominant = resolvent._discs_clear(np.abs(stack.diagonal - E), stack.row_sums(), e,
                                              resolvent.guard_width(stack, e))[0]
            certified = resolvent.dominance_certified(
                stack, e, tpl.center_index(), tpl.boundary_indices(),
                math.exp(-sched.m[k] * sched.L[k]))
            assert certified.tolist() == dominant.tolist()
            dominant_boxes, boxes = dominant_boxes + dominant.sum(), boxes + len(stack)
        assert 0.6 < dominant_boxes / boxes < 0.9


class TestCertifiedParent:
    """The inductive step decides its parent by ``window_clear`` at the
    parent's resonance width: an instance whose every window question is
    certified makes no ``eigvalsh`` call, a resonant parent is
    diagonalized, and either way the report is the one of a step that
    always diagonalizes the parent and every sub-box."""

    @staticmethod
    def _diagonalizing(monkeypatch, instances):
        with monkeypatch.context() as m:
            m.setattr("anderson2p.resolvent.window_clear", certify_nothing)
            return [inductive_ns_step(*args) for args in instances]

    @staticmethod
    def _counting(monkeypatch):
        """Record every ``eigvalsh`` call's stack shape, and every
        ``window_clear`` call's verdicts with its stack's diagonal-centred
        marks."""
        calls, verdicts = [], []
        eigvalsh, window_clear = np.linalg.eigvalsh, resolvent.window_clear

        def counted_eigvalsh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def counted_window_clear(*args):
            verdicts.append((window_clear(*args), args[0].on_diagonal))
            return verdicts[-1][0]

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr("anderson2p.resolvent.window_clear", counted_window_clear)
        return calls, verdicts

    @pytest.mark.parametrize("adjacency", ["l1", "sup"])
    def test_certified_instances_make_no_eigvalsh_call(self, monkeypatch, adjacency):
        instances = _inductive_instances(adjacency)
        want = self._diagonalizing(monkeypatch, instances)
        calls, verdicts = self._counting(monkeypatch)
        certified = 0
        for args, expected in zip(instances, want):
            calls.clear()
            verdicts.clear()
            assert inductive_ns_step(*args) == expected
            # per stack with an uncertified box, one eigvalsh over those of
            # its boxes off the diagonal and one per exchange sector over
            # those on it, and none for a certified stack
            counts = [(int((~v & ~marked).sum()),) + (int((~v & marked).sum()),) * 2
                      for v, marked in verdicts]
            assert [shape[0] for shape in calls] == [c for three in counts for c in three if c]
            certified += all(v.all() for v, _ in verdicts)
        assert certified >= 12
        assert sum(rep.ns_ok is not None for rep in want) >= 12

    @pytest.mark.parametrize("adjacency", ["l1", "sup"])
    def test_resonant_parent_is_diagonalized(self, monkeypatch, adjacency):
        center, k, sched, sample, inter, g, _, adj = _inductive_instances(adjacency)[0]
        parent = assemble_two_particle(Box2(center, sched.L[k + 1]), sample, inter,
                                       g, adj)
        instances = [(center, k, sched, sample, inter, g, float(E), adj)
                     for E in parent.eigenvalues()[[20, 80, 140]]]
        want = self._diagonalizing(monkeypatch, instances)
        calls, verdicts = self._counting(monkeypatch)
        for args, expected in zip(instances, want):
            calls.clear()
            verdicts.clear()
            rep = inductive_ns_step(*args)
            assert rep == expected and not rep.cnr_ok and rep.skipped
            # the parent's is the one-box window question; the counter's
            # sub-box stack is asked first.  The parent is centred on the
            # diagonal, so its spectrum comes from its two exchange sectors
            m = (2 * parent.box.radius + 1) ** parent.box.d
            blocks = [(1, m * (m + 1) // 2, m * (m + 1) // 2), (1, m * (m - 1) // 2, m * (m - 1) // 2)]
            assert [v.tolist() for v, _ in verdicts if len(v) == 1] == [[False]]
            assert [shape for shape in calls if shape in blocks] == blocks


def _batch(sched, k, adjacency, seeds):
    """Samples and energies of one ``inductive_ns_steps`` batch at the
    origin, cycling through four kinds of energy: random over the
    spectrum, at a parent eigenvalue (a resonant parent), at an eigenvalue
    of the first CNR sub-box (a resonant sub-box under a parent that need
    not be resonant), and random in [-1, 1] (mostly certified parents
    whose hypotheses hold)."""
    center = Point2.of((0,), (0,))
    parent = Box2(center, sched.L[k + 1])
    radius, max_off = cnr_subbox_layout(k, sched)[0]
    rng = np.random.default_rng(k)
    samples, energies = [], []
    for i, seed in enumerate(seeds):
        sample = sample_potential(DistributionSpec.uniform(), seed, 0,
                                  domain_for_boxes([parent]))
        if i % 4 == 0:
            E = rng.uniform(-1.0, 2 * sched.g + 1.0)
        elif i % 4 == 1:
            ev = assemble_two_particle(parent, sample, _interaction(), sched.g,
                                       adjacency).eigenvalues()
            E = ev[len(ev) // (3 + i % 3)]
        elif i % 4 == 2:
            sub = Box2(center, max_off).points()[[i % (2 * max_off + 1)]]
            E = np.linalg.eigvalsh(box_family(sub, radius, sample, _interaction(), sched.g,
                                              adjacency))[0, 2]
        else:
            E = rng.uniform(-1.0, 1.0)
        samples.append(sample)
        energies.append(float(E))
    return center, samples, energies


class TestBatchedInductiveStep:
    """``inductive_ns_steps`` decides a batch of samples stage by stage;
    every report equals that of the sample decided alone, field for
    field, with the window test working or certifying nothing."""

    @pytest.mark.parametrize("window", ["certified", "uncertified"])
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("k,g,seeds", [(0, 5.0, range(40, 52)), (0, 30.0, range(60, 72)),
                                           (1, 30.0, range(80, 84))],
                             ids=["k0-g5", "k0-g30", "k1-g30"])
    def test_batch_equals_one_call_per_sample(self, monkeypatch, k, g, seeds, adjacency,
                                              window):
        sched = desk_schedule(g=g)
        center, samples, energies = _batch(sched, k, adjacency, seeds)
        inter = _interaction()
        if window == "uncertified":
            want = [inductive_ns_step(center, k, sched, s, inter, g, E, adjacency)
                    for s, E in zip(samples, energies)]
            monkeypatch.setattr("anderson2p.resolvent.window_clear", certify_nothing)
        reports = inductive_ns_steps(center, k, sched, samples, energies, inter, g, adjacency)
        alone = [inductive_ns_step(center, k, sched, s, inter, g, E, adjacency)
                 for s, E in zip(samples, energies)]
        assert [dataclasses.asdict(r) for r in reports] == [dataclasses.asdict(r) for r in alone]
        if window == "uncertified":
            assert reports == want  # the spectral path gives the certified reports
        counters = singular_subbox_counts(center, k, sched, samples, energies, inter, g,
                                          adjacency)
        assert counters == [count_singular_subboxes(center, k, sched, s, inter, g, E,
                                                    adjacency)
                            for s, E in zip(samples, energies)]
        # verified instances, failed hypotheses, and both kinds of failure
        assert any(r.ns_ok is not None for r in reports)
        assert any(r.skipped for r in reports)
        gaps = [math.inf if i % 4 == 3 else float(np.abs(
            assemble_two_particle(Box2(center, sched.L[k + 1]), s, inter, g,
                                  adjacency).eigenvalues() - E).min())
            for i, (s, E) in enumerate(zip(samples, energies))]
        sweeps = cnr_sweeps(center, k, sched, samples, energies, inter, g, adjacency, gaps)
        # a gap read from the spectrum is is_cnr's; inf is a certified parent
        assert sweeps == [
            is_cnr(center, k, sched, s, inter, g, E, adjacency) if gap < math.inf
            else cnr_sweeps(center, k, sched, [s], [E], inter, g, adjacency, [gap])[0]
            for s, E, gap in zip(samples, energies, gaps)]
        radii = {r.failed_radius for r in sweeps}
        assert {None, sched.L[k + 1], cnr_subbox_layout(k, sched)[0][0]} <= radii
        if k == 0:
            assert any(c.singular_ni or c.singular_i for c in counters)

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_sampled_cnr_batch_equals_one_call_per_sample(self, adjacency):
        sched = desk_schedule(g=5.0)
        center, samples, energies = _batch(sched, 0, adjacency, range(20, 32))
        inter = _interaction()
        kw = dict(exhaustive_limit=1, sample_budget=20)
        gaps = [math.inf] * len(samples)
        sweeps = cnr_sweeps(center, 0, sched, samples, energies, inter, 5.0, adjacency,
                            gaps, **kw)
        assert sweeps == [cnr_sweeps(center, 0, sched, [s], [E], inter, 5.0, adjacency,
                                     [math.inf], **kw)[0]
                          for s, E in zip(samples, energies)]
        assert not any(r.exhaustive for r in sweeps)
        assert {r.ok for r in sweeps} == {False, True}

    def test_pieces_do_not_reach_the_reports(self, monkeypatch):
        """One box per piece, or the whole batch in one: the same reports."""
        sched = desk_schedule(g=5.0)
        center, samples, energies = _batch(sched, 0, "sup", range(40, 52))
        args = (center, 0, sched, samples, energies, _interaction(), 5.0, "sup")
        want = inductive_ns_steps(*args)
        for budget in (1, 1 << 30):
            monkeypatch.setattr(operators, "STACK_BYTES", budget)
            assert inductive_ns_steps(*args) == want


class TestBatchedLapackCalls:
    """``msa-verify --check inductive-step`` on one worker decides its 16
    seeds in batches of ``blas.BATCH_ITEMS``: its stacked ``solve`` and
    ``cholesky`` calls are one per byte-budget piece of a batch's stage,
    not one per seed."""

    @staticmethod
    def _run(monkeypatch, tmp_path):
        """The records of a 16-seed desk run on one worker, and the matrix
        count of every ``solve`` and ``cholesky`` call with whether it
        raised."""
        calls = {"solve": [], "cholesky": []}
        wrapped = {name: getattr(np.linalg, name) for name in calls}

        def counting(name):
            def counted(a, *args, **kwargs):
                calls[name].append([a.shape[0], True])
                out = wrapped[name](a, *args, **kwargs)
                calls[name][-1][1] = False
                return out
            return counted

        with monkeypatch.context() as m:
            m.setattr("os.sched_getaffinity", lambda pid: {0})
            for name in calls:
                m.setattr(np.linalg, name, counting(name))
            assert cli.main(["msa-verify", "--check", "inductive-step", "--seeds", "16",
                             "--out", str(tmp_path)]) == 0
        records = next(tmp_path.rglob("records.jsonl")).read_bytes()
        return records, calls

    @staticmethod
    def _first_calls(cholesky):
        """Cholesky calls that are not one of the two halves of a stack
        that raised (``resolvent._factors``)."""
        return len(cholesky) - 2 * sum(raised and size > 1 for size, raised in cholesky)

    def test_calls_are_per_piece(self, monkeypatch, tmp_path):
        sched = desk_schedule()
        records, calls = self._run(monkeypatch, tmp_path / "budget")
        # the pieces' sizes: the counter's sub-boxes of n = 49 sites at the
        # desk's scale 0 off the diagonal, and the symmetric blocks (of
        # N (N + 1) / 2 rows, N = 2L + 1) that a box on the diagonal is
        # solved in: 28 rows for those sub-boxes, 91 for the parents
        sym = {"parent": (2 * sched.L[1] + 1) * (2 * sched.L[1] + 2) // 2,
               "counter": (2 * sched.L[0] + 1) * (2 * sched.L[0] + 2) // 2}
        n = {"counter": (2 * sched.L[0] + 1) ** 2,
             **{f"{name} symmetric": m for name, m in sym.items()}}
        per_piece = {name: operators.STACK_BYTES // (8 * m * m) for name, m in n.items()}
        batches = [len(range(16)[i:i + blas.BATCH_ITEMS])
                   for i in range(0, 16, blas.BATCH_ITEMS)]
        assert len(batches) < 16
        # solves: each batch's counter boxes, 28 exchange orbits per seed of
        # which 7 are centred on the diagonal, and at most one parent per
        # seed, in pieces, apart from the boxes the window test leaves to
        # spectra
        bound = sum(-(-b * 21 // per_piece["counter"])
                    + -(-b * 7 // per_piece["counter symmetric"])
                    + -(-b // per_piece["parent symmetric"]) for b in batches) + 2
        assert len(calls["solve"]) <= bound < 2 * 16
        assert all(size <= max(per_piece.values()) for size, _ in calls["solve"])
        # with a whole batch in one piece: one solve per stage, kind of guard
        # and kind of block, one Cholesky stack per window question and kind
        # of block (boxes off the diagonal, and each exchange sector of those
        # on it: three for the counter's and the CNR radius's sub-boxes, two
        # for the parents), and the same records
        monkeypatch.setattr(operators, "STACK_BYTES", 1 << 30)
        whole, calls = self._run(monkeypatch, tmp_path / "whole")
        assert whole == records
        assert len(calls["solve"]) <= 4 * len(batches)
        assert self._first_calls(calls["cholesky"]) <= 8 * len(batches)
        assert max(size for size, _ in calls["solve"]) >= max(batches) * 21 // 2


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

    def test_check_can_fail(self):
        """The assertion has room: the first instance of the benchmark's
        ``inductive`` configuration attains a mass m* = -ln(max_boundary_gf)
        / L_1 several times the asserted one.  Asserted at 1.01 m* (the
        desk asserts the schedule's m_1, the raw bound being negative) it
        fails, and at 0.99 m* it holds."""
        center, k, sched, sample, inter, g, E, adjacency = _inductive_instances("l1")[0]
        rep = inductive_ns_step(center, k, sched, sample, inter, g, E, adjacency)
        assert rep.hypotheses_hold and rep.ns_ok and rep.mass_bound <= 0
        attained = -math.log(rep.max_boundary_gf) / sched.L[k + 1]
        assert attained > 5 * rep.assert_mass
        for factor, ok in ((1.01, False), (0.99, True)):
            asserted = dataclasses.replace(sched, m=(sched.m[0], factor * attained,
                                                     *sched.m[2:]))
            got = inductive_ns_step(center, k, asserted, sample, inter, g, E, adjacency)
            assert got.ns_ok is ok and got.assert_mass == factor * attained
            assert dataclasses.replace(got, assert_mass=rep.assert_mass, ns_ok=True,
                                       ns_margin=rep.ns_margin) == rep

    def test_counter_never_exceeds_candidates(self, desk):
        sample = sample_potential(DistributionSpec.uniform(), 4, 0,
                                  domain_for_boxes([Box2.of_origin(1, desk.L[1])]))
        rep = count_singular_subboxes(Point2.of((0,), (0,)), 0, desk, sample,
                                      _interaction(), desk.g, 1.0)
        assert rep.K <= rep.n_candidates
