import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from anderson2p.classify import energy_grid, is_cnr, not_cnr_windows
from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.errors import InvalidInputError, PlacementError
from anderson2p import experiment
from anderson2p.experiment import (
    EventSpec,
    _eval_counter,
    _TrialContext,
    decay_fit,
    estimate_event,
    localization_mass_sweep,
    singularity_vs_g_probe,
    wegner_sweep,
    wilson_interval,
)
from anderson2p.geometry import ADJ_SUP, Box2, Point2, normalize_adjacency
from anderson2p.msa import desk_schedule, max_separated_subset, schedule
from anderson2p.operators import assemble_two_particle

from .oracles import counter_by_energy, not_cnr_windows_by_subbox

COUNTER_KINDS = ("ni_counter_at_least", "interactive_counter_at_least",
                 "total_counter_at_least")


def _interaction():
    return InteractionSpec.triangular(1, 1.0)


class TestWilson:
    def test_contains_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_endpoints(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.12
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.88

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidInputError):
            wilson_interval(0, 0)

    def test_quantile_is_scipy_double(self):
        from scipy.stats import norm

        assert experiment._Z_975 == float(norm.ppf(0.975))

    def test_coverage_on_synthetic_bernoulli(self):
        # 95% interval coverage over seeded meta-trials of a p=0.3 coin
        rng = np.random.default_rng(2024)
        p = 0.3
        n = 200
        hits = 0
        meta = 1000
        for _ in range(meta):
            successes = int(rng.binomial(n, p))
            lo, hi = wilson_interval(successes, n)
            hits += lo <= p <= hi
        assert 0.93 <= hits / meta <= 0.97


class TestEstimateEvent:
    def test_zero_trials_error(self, desk):
        with pytest.raises(InvalidInputError):
            estimate_event([EventSpec("resonant_at_energy", energy=0.0)],
                           desk, 0, 1)

    def test_determinism(self, desk):
        spec = EventSpec("resonant_at_energy", energy=0.0)
        [a] = estimate_event([spec], desk, 50, 7)
        [b] = estimate_event([spec], desk, 50, 7)
        assert a.to_record() == b.to_record()

    def test_resonant_at_energy_reasonable(self, desk):
        spec = EventSpec("resonant_at_energy", energy=0.0)
        [rec] = estimate_event([spec], desk, 100, 3)
        assert 0 <= rec.estimate <= 1
        assert rec.wilson_low <= rec.estimate <= rec.wilson_high

    def test_single_box_singular_grid_recorded(self, desk):
        spec = EventSpec("single_box_singular", interval=(-1.0, 1.0))
        [rec] = estimate_event([spec], desk, 10, 3)
        assert rec.grid_delta is not None
        assert rec.bound_name is not None

    def test_grid_spacing_override(self, desk):
        spec = EventSpec("single_box_singular", interval=(-1.0, 1.0),
                         grid_spacing=0.05)
        [rec] = estimate_event([spec], desk, 5, 3)
        assert rec.grid_delta == pytest.approx(0.05, rel=0.05)

    def test_strong_disorder_singular_freq_zero(self):
        # overwhelming disorder: the singular-somewhere event never fires
        sched = schedule(2, 1.5, 0.5, 0.05, 1, g=1e6, d=1)
        spec = EventSpec("single_box_singular", interval=(-1.0, 1.0))
        [rec] = estimate_event([spec], sched, 100, 11)
        assert rec.successes == 0

    def test_pair_events_run(self, desk):
        for kind in ("pair_singular", "interactive_pair_singular"):
            [rec] = estimate_event([EventSpec(kind, interval=(-0.5, 0.5))],
                                   desk, 5, 13)
            assert rec.trials == 5

    def test_pair_resonant_exact(self, desk):
        [rec] = estimate_event([EventSpec("pair_resonant")], desk, 30, 5)
        assert 0 <= rec.estimate <= 1

    def test_tunnelling_event(self, desk):
        [rec] = estimate_event([EventSpec("single_particle_tunnelling")], desk, 40, 9)
        # strong desk disorder: tunnelling should be rare
        assert rec.estimate <= 0.5

    def test_counter_event(self):
        sched = schedule(2, 3.5, 0.5, 1.0, 1, g=15.0, d=1)
        [rec] = estimate_event(
            [EventSpec("total_counter_at_least", interval=(-0.25, 0.25), n=1)],
            sched, 5, 21)
        assert rec.trials == 5

    def test_infeasible_placement_raises(self, desk):
        spec = EventSpec("pair_singular", interval=(-1, 1), region=2)
        with pytest.raises(PlacementError):
            estimate_event([spec], desk, 2, 1)

    def test_every_kind_evaluates(self):
        # registry completeness: every declared kind runs end to end
        from anderson2p.experiment import EVENT_KINDS
        from anderson2p.msa import schedule

        sched = schedule(2, 1.5, 0.5, 0.5, 1, g=10.0, d=1)
        for kind in EVENT_KINDS:
            spec = EventSpec(kind, k=0, interval=(-0.5, 0.5), energy=0.0, n=1)
            [rec] = estimate_event([spec], sched, 2, 5)
            assert rec.trials == 2
            assert rec.to_record()["event"]["kind"] == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            EventSpec("made_up_event")

    @pytest.mark.parametrize("kind", COUNTER_KINDS)
    def test_counter_needs_positive_n(self, kind):
        # n = 0 would make the interactive threshold 0: every trial succeeds
        for n in (0, -1):
            with pytest.raises(InvalidInputError):
                EventSpec(kind, interval=(-1.0, 1.0), n=n)
        assert EventSpec(kind, interval=(-1.0, 1.0), n=1).n == 1

    @pytest.mark.parametrize("spacing", [0.0, -0.5, math.nan])
    def test_non_positive_grid_spacing_rejected(self, desk, spacing):
        spec = EventSpec("single_box_singular", interval=(-1.0, 1.0),
                         grid_spacing=spacing)
        with pytest.raises(InvalidInputError):
            estimate_event([spec], desk, 1, 1)

    def test_bound_comparison_branches(self, desk):
        from anderson2p.experiment import _finish_record

        spec = EventSpec("pair_singular", interval=(-1.0, 1.0))
        # desk reference bound is L0^-2p = 3^-4; zero successes pass it
        rec = _finish_record(spec, desk, 4000, 0, 1)
        assert rec.comparison == "pass"
        rec = _finish_record(spec, desk, 4000, 2000, 1)
        assert rec.comparison == "fail"
        rec = _finish_record(spec, desk, 100, 1, 1)
        assert rec.comparison == "indeterminate"


class TestCounterMatchesPerEnergyOracle:
    """The grid-wide counter sweep against one singular set and one subset
    search per grid energy (``counter_by_energy``)."""

    @staticmethod
    def _compare(monkeypatch, sched, adjacency, trials):
        """Verdicts of the oracle; asserts that the sweep gives the same
        verdicts and searches each distinct singular set once, with its
        candidates in the oracle's order, and that every search is exact."""
        searches = []

        def recording(centers, *args):
            searches.append([tuple(int(x) for x in c) for c in centers])
            return max_separated_subset(centers, *args)

        monkeypatch.setattr(experiment, "max_separated_subset", recording)
        ctx = _TrialContext(sched, DistributionSpec.uniform(),
                            InteractionSpec.triangular(sched.r0), 9000)
        verdicts = []
        for kind in COUNTER_KINDS:
            spec = EventSpec(kind, interval=(-1.0, 1.0), adjacency=adjacency)
            for trial in trials:
                want, searched = counter_by_energy(spec, ctx, trial)
                searches.clear()
                assert _eval_counter(spec, ctx, trial) == want, (kind, trial)
                distinct = []
                for centers, _ in searched:
                    if centers not in distinct:
                        distinct.append(centers)
                assert searches == distinct, (kind, trial)
                verdicts.append(want)
                assert all(exact for _, exact in searched), (kind, trial)
        return verdicts

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("g", [1.0, 5.0, 30.0])
    def test_desk_verdicts(self, monkeypatch, adjacency, g):
        self._compare(monkeypatch, desk_schedule(g=g), adjacency, range(4))

    def test_true_verdicts_and_early_exit(self, monkeypatch):
        # L = (2, 12): separated singular sub-boxes fit in the parent box
        sched = schedule(2, 3.5, 1.0, 0.5, 1, g=5.0, d=1)
        verdicts = self._compare(monkeypatch, sched, "sup", range(2))
        assert True in verdicts and False in verdicts


class TestIndependenceCrossCheck:
    def test_joint_equals_product_at_distance(self):
        # boxes with disjoint projections have independent spectra: the
        # fixed-energy joint resonance frequency matches the product of the
        # marginals (two estimators of the same quantity)
        from anderson2p.classify import resonance_width

        g, L, e, trials = 4.0, 2, 2.0, 800
        inter = _interaction()
        b1 = Box2(Point2.of((0,), (60,)), L)
        b2 = Box2(Point2.of((300,), (360,)), L)
        width = resonance_width(L, 0.5)
        dist = DistributionSpec.uniform()
        domain = domain_for_boxes([b1, b2])
        n1 = n2 = n12 = 0
        for t in range(trials):
            sample = sample_potential(dist, 31, t, domain)
            r1 = abs(assemble_two_particle(b1, sample, inter, g).eigenvalues()
                     - e).min() < width
            r2 = abs(assemble_two_particle(b2, sample, inter, g).eigenvalues()
                     - e).min() < width
            n1 += r1
            n2 += r2
            n12 += r1 and r2
        p1, p2, p12 = n1 / trials, n2 / trials, n12 / trials
        sigma = math.sqrt(max(p1 * p2 * (1 - p1 * p2), 1e-9) / trials)
        assert abs(p12 - p1 * p2) <= 3 * sigma + 0.01


class TestNotCnrWindows:
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_matches_per_box_oracle(self, adjacency):
        # L = (2, 7), J = 3: windows of the parent, 81 boxes of radius 3 and
        # 9 of radius 6; strong disorder and narrow windows keep many of
        # them apart
        sched = schedule(2, 2.7, 1.0, 1.0, 1, J=3, g=100.0, d=1, beta=0.9)
        center = Point2.of((1,), (-2,))
        sample = sample_potential(DistributionSpec.uniform(), 17, 3,
                                  domain_for_boxes([Box2(center, sched.L[1])]))
        args = (center, 0, sched, sample, _interaction(), sched.g, adjacency)
        lo, hi = not_cnr_windows(*args)
        windows = list(zip(lo.tolist(), hi.tolist()))
        assert windows == not_cnr_windows_by_subbox(*args)
        # the box fails complete non-resonance exactly inside the windows
        inside = [(lo + hi) / 2 for lo, hi in windows[::10]]
        between = [(a[1] + b[0]) / 2 for a, b in zip(windows, windows[1:])][::10]
        assert len(between) > 10
        for e, want in [(e, False) for e in inside] + [(e, True) for e in between]:
            assert is_cnr(center, 0, sched, sample, _interaction(), sched.g, e,
                          adjacency).ok == want, e


def hop_degree(d: int, adjacency: str, particles: int = 2) -> int:
    """Maximal number of lattice neighbours of a point under the mode."""
    nd = particles * d
    return 3**nd - 1 if normalize_adjacency(adjacency) == ADJ_SUP else 2 * nd


@dataclass
class CertificateReport:
    """Initial-scale certificate: when every configuration's potential is
    at least c0 away from the interval center, the whole resolvent is
    uniformly small on the interval."""

    certificate: bool
    c0: float
    min_offset: float
    norm_bound_ok: Optional[bool]
    energies_checked: int


def initial_step_certificate(box, sample, interaction, g, interval, m0, L0,
                             adjacency="l1") -> CertificateReport:
    """Sufficient condition for uniform resolvent smallness on an interval.

    With ``c0 = hop_degree + 2 eta + exp(m0 L0)`` (eta the interval
    half-width), ``|U(x) + g W(x) - E0| >= c0`` for every configuration
    forces ``dist(E, spectrum) >= exp(m0 L0)``, i.e.
    ``||(H - E)^{-1}|| <= exp(-m0 L0)``, for every E in the interval.  When
    the certificate holds the spectral condition is asserted on the
    interval grid; a violation there would be a bug, not randomness.
    """
    a, b = interval
    E0, eta = 0.5 * (a + b), 0.5 * (b - a)
    deg = hop_degree(box.d, adjacency)
    c0 = deg + 2.0 * eta + math.exp(m0 * L0)
    op = assemble_two_particle(box, sample, interaction, g, adjacency)
    offsets = np.abs(np.diag(op.matrix) - E0)
    min_offset = float(offsets.min())
    cert = bool(min_offset >= c0)
    norm_ok = None
    n_checked = 0
    if cert:
        ev = op.eigenvalues()
        grid = energy_grid(interval, L0, 0.5)
        n_checked = len(grid)
        norm_ok = bool(
            all(np.abs(ev - float(E)).min() >= math.exp(m0 * L0) for E in grid)
        )
    return CertificateReport(cert, float(c0), min_offset, norm_ok, n_checked)


class TestInitialCertificate:
    def test_strong_coupling_certificate(self):
        box = Box2.of_origin(1, 2)
        sample = sample_potential(DistributionSpec.uniform(0.5, 1.0), 3, 0,
                                  domain_for_boxes([box]))
        rep = initial_step_certificate(box, sample, _interaction(), 1e6,
                                       (-1.0, 1.0), 0.5, 2)
        assert rep.certificate
        assert rep.norm_bound_ok  # deterministic implication, not a statistic
        assert rep.c0 == pytest.approx(4 + 2 + math.exp(1.0))

    def test_zero_offset_fails_certificate(self):
        box = Box2.of_origin(1, 1)
        sample = sample_potential(DistributionSpec.uniform(), 4, 0,
                                  domain_for_boxes([box]))
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        e0 = float(op.matrix[0, 0])  # an attainable potential value
        rep = initial_step_certificate(box, sample, _interaction(), 1.0,
                                       (e0 - 0.1, e0 + 0.1), 0.5, 1)
        assert not rep.certificate

    def test_c0_arithmetic(self):
        box = Box2.of_origin(1, 2)
        sample = sample_potential(DistributionSpec.uniform(), 5, 0,
                                  domain_for_boxes([box]))
        rep = initial_step_certificate(box, sample, _interaction(), 1.0,
                                       (-0.5, 0.5), 0.5, 2)
        assert rep.c0 == pytest.approx(4 * 1 + 2 * 0.5 + math.exp(1.0))


class TestWegnerSweep:
    def test_rows_and_reference(self, desk):
        rows = wegner_sweep([2, 3], 0.0, 20, desk, 17)
        assert [r.scale for r in rows] == [2, 3]
        for r in rows:
            assert r.reference == pytest.approx(r.scale ** -desk.q)
            assert r.single_box.trials == 20
            assert r.pair.trials == 20

    def test_zero_trials(self, desk):
        with pytest.raises(InvalidInputError):
            wegner_sweep([2], 0.0, 0, desk, 1)


class TestDecayFit:
    def _op(self, g, seed=5, L=8):
        box = Box2.of_origin(1, L)
        sample = sample_potential(DistributionSpec.uniform(), seed, 0,
                                  domain_for_boxes([box]))
        return assemble_two_particle(box, sample, _interaction(), g, "l1")

    def test_radius_minimum(self):
        with pytest.raises(InvalidInputError):
            decay_fit(self._op(5.0, L=3))

    def test_free_states_no_decay(self):
        op = self._op(0.0)
        fits, agg = decay_fit(op)
        assert abs(agg["median_m_hat"]) < 0.12

    def test_strong_disorder_decays(self):
        op = self._op(25.0)
        fits, agg = decay_fit(op)
        assert agg["median_m_hat"] > 0.5

    def test_localized_state_large_mass(self):
        # near-delta eigenvectors produce very steep fitted slopes
        op = self._op(200.0)
        fits, agg = decay_fit(op)
        assert agg["median_m_hat"] > 1.5

    def test_profile_shape(self):
        op = self._op(10.0)
        fits, _ = decay_fit(op)
        f = fits[0]
        assert f.fit_lo == 2 and f.fit_hi <= 8
        assert len(f.profile) >= f.fit_hi + 1

    def test_mass_sweep_monotone(self):
        rows = localization_mass_sweep([1.0, 20.0], 8, 6, seed=3)
        assert rows[1].median_m_hat > rows[0].median_m_hat
        assert rows[0].ci_half_width >= 0


class TestSsInductionProbe:
    def test_identities_and_records(self):
        sched = desk_schedule(L0=2, m0=0.5, g=20.0)
        kinds = experiment.MODE_KINDS["ss-probe"]
        assert kinds == ("mixed_pair_singular", "ni_projection_tunnelling",
                         "neither_box_cnr", "mixed_pair_residual")
        specs = [EventSpec(kind, interval=(-0.5, 0.5)) for kind in kinds]
        recs = dict(zip(kinds, estimate_event(specs, sched, 12, 5)))
        b = recs["mixed_pair_singular"]
        others = (recs["ni_projection_tunnelling"].successes
                  + recs["neither_box_cnr"].successes
                  + recs["mixed_pair_residual"].successes)
        assert b.successes <= others


class TestGTrendProbe:
    def test_reports_trend(self):
        sched = schedule(2, 1.5, 0.5, 0.8, 1, g=1.0, d=1)
        spec = EventSpec("single_box_singular", interval=(-0.5, 0.5))
        estimates, summary = singularity_vs_g_probe([1.0, 80.0], spec, sched, 60, 19)
        assert len(summary.trend) == 1
        assert summary.trend[0] in ("decreasing", "indeterminate", "violation")
        ests = [r.estimate for r in estimates]
        assert ests[1] <= ests[0] + 0.1  # strong disorder not more singular
