import numpy as np
import pytest

from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.cli import _recovery_batch
from anderson2p.config import ExperimentConfig
from anderson2p.errors import NumericError, PreconditionError, ResonantEnergyError
from anderson2p.geometry import Box2, Point2, exterior_boundary
from anderson2p.kernels import pairwise_dist
from anderson2p.operators import (
    assemble_two_particle,
    box_family,
    diagonalize,
    single_particle_factors,
)
from anderson2p.resolvent import (
    boundary_green_max,
    boundary_green_maxima,
    boundary_recovery,
    green_column,
    green_spectral,
    spectral_gap,
)

from .conftest import box_with_sample
from .oracles import (
    dense_inverse_green,
    green_column_one_box,
    operator_norm2,
    recovery_batch_by_dicts,
)


def _interaction():
    return InteractionSpec.triangular(1, 1.0)


def _nonresonant_energies(ev, count, rng, margin=1e-3):
    """Energies inside the spectral hull away from every eigenvalue."""
    out = []
    lo, hi = ev[0] - 1.0, ev[-1] + 1.0
    while len(out) < count:
        e = float(rng.uniform(lo, hi))
        if np.abs(ev - e).min() > margin * max(1.0, np.abs(ev).max()):
            out.append(e)
    return out


class TestGreenColumn:
    def test_scalar_inverse(self):
        box, sample = box_with_sample(Point2.of((0,), (2,)), 0, seed=3)
        op = assemble_two_particle(box, sample, _interaction(), 2.0)
        vec, _ = green_column(op, -1.5)
        assert vec[0] == pytest.approx(1.0 / (op.matrix[0, 0] + 1.5))

    def test_positive_below_spectrum(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=5)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        e = float(op.eigenvalues()[0] - operator_norm2(op) - 1.0)
        vec, _ = green_column(op, e)
        assert vec[op.center_index()] > 0

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            box, sample = box_with_sample(
                Point2.of((0,), (int(rng.integers(-3, 4)),)), 1,
                seed=int(rng.integers(1e9)))
            op = assemble_two_particle(box, sample, _interaction(),
                                       float(rng.uniform(0.5, 8)))
            e = _nonresonant_energies(op.eigenvalues(), 1, rng)[0]
            vec, _ = green_column(op, e)
            i = op.center_index()
            for j in (0, op.n // 2, op.n - 1):
                oracle = dense_inverse_green(op.matrix, e, i, j)
                assert vec[j] == pytest.approx(oracle, abs=1e-8, rel=1e-8)

    def test_resonant_energy_rejected(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=5)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        with pytest.raises(ResonantEnergyError):
            green_column(op, float(op.eigenvalues()[0]))

    def test_residual_small(self):
        box, sample = box_with_sample(Point2.of((0,), (1,)), 2, seed=6)
        op = assemble_two_particle(box, sample, _interaction(), 4.0)
        rng = np.random.default_rng(0)
        e = _nonresonant_energies(op.eigenvalues(), 1, rng)[0]
        _, residual = green_column(op, e)
        assert residual <= 1e-8 * (1 + abs(e) + operator_norm2(op))

    def test_symmetry(self):
        box, sample = box_with_sample(Point2.of((0,), (2,)), 1, seed=11)
        op = assemble_two_particle(box, sample, _interaction(), 3.0)
        rng = np.random.default_rng(1)
        e = _nonresonant_energies(op.eigenvalues(), 1, rng)[0]
        x = Point2.of((0,), (2,))
        y = Point2.of((1,), (1,))
        cx, _ = green_column(op, e, x)
        cy, _ = green_column(op, e, y)
        assert cx[op.index_of(y)] == pytest.approx(cy[op.index_of(x)], abs=1e-8)

    def test_resolvent_identity(self):
        box, sample = box_with_sample(Point2.of((0,), (1,)), 1, seed=13)
        op = assemble_two_particle(box, sample, _interaction(), 2.0)
        rng = np.random.default_rng(2)
        e1, e2 = _nonresonant_energies(op.eigenvalues(), 2, rng)
        c1, _ = green_column(op, e1)
        c2, _ = green_column(op, e2)
        # G(E1) - G(E2) = (E1 - E2) G(E1) G(E2), applied to the delta source
        lhs = c1 - c2
        from scipy.linalg import lu_factor, lu_solve

        rhs = (e1 - e2) * lu_solve(lu_factor(op.matrix - e1 * np.eye(op.n)), c2)
        assert np.abs(lhs - rhs).max() < 1e-6


    def test_residual_checked(self, monkeypatch):
        box, sample = box_with_sample(Point2.of((0,), (2,)), 1, seed=11)
        op = assemble_two_particle(box, sample, _interaction(), 3.0)
        e = _nonresonant_energies(op.eigenvalues(), 1, np.random.default_rng(5))[0]
        assert green_column(op, e)[1] < 1e-10
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[0] += 1e-4 * np.linalg.norm(x)
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericError, match="residual"):
            green_column(op, e)


def _outcome(solve, op, e, x):
    """The bytes of a Green's column and its residual, or the error raised."""
    try:
        vec, residual = solve(op, e, x)
    except (NumericError, ResonantEnergyError) as err:
        return type(err)
    return vec.tobytes(), residual


class TestGreenColumnMatchesOneBoxSolve:
    """``green_column`` through the stacked ``_solve`` against the unstacked
    one-box solve it replaced: equal bits, and the same errors."""

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("radius", [2, 3, 5])
    def test_same_bits_and_errors(self, monkeypatch, adjacency, radius):
        rng = np.random.default_rng(radius)
        seen = set()
        for seed in range(5):
            box, sample = box_with_sample(Point2.of((0,), (seed - 2,)), radius, seed=seed)
            op = assemble_two_particle(box, sample, _interaction(),
                                       float(rng.uniform(0.5, 8)), adjacency)
            ev = op.eigenvalues()
            # an eigenvalue, a point just past the guard, and generic energies
            energies = [float(ev[seed]), float(ev[seed] + 2e-12 * operator_norm2(op)),
                        *_nonresonant_energies(ev, 3, rng)]
            for e in energies:
                for x in (None, int(rng.integers(op.n)), Point2.of(*np.split(op.points[0], 2))):
                    want = _outcome(green_column_one_box, op, e, x)
                    assert _outcome(green_column, op, e, x) == want
                    seen.add(want if isinstance(want, type) else "solved")
        assert {"solved", ResonantEnergyError} <= seen
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x.flat[0] += 1e-4 * np.linalg.norm(x)
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        e = energies[-1]
        assert _outcome(green_column_one_box, op, e, None) is NumericError
        assert _outcome(green_column, op, e, None) is NumericError


class TestBoundaryGreenMaxima:
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("radius", [3, 6])
    def test_one_box_is_green_column_bitwise(self, adjacency, radius):
        rng = np.random.default_rng(radius)
        for seed in range(4):
            box, sample = box_with_sample(Point2.of((0,), (seed - 1,)), radius, seed=seed)
            op = assemble_two_particle(box, sample, _interaction(), 5.0, adjacency)
            bidx = op.boundary_indices()
            for e in _nonresonant_energies(op.eigenvalues(), 3, rng):
                column = np.abs(green_column(op, e)[0][bidx])
                value, point = column.max(), op.points[bidx[np.argmax(column)]]
                values, where = boundary_green_maxima(
                    op.matrix[None], op.eigenvalues()[None], op.center_index(),
                    op.boundary_indices(), e)
                assert values[0] == value
                assert np.array_equal(op.points[op.boundary_indices()[where[0]]], point)
                got_value, got_point = boundary_green_max(op, e)
                assert got_value == value and np.array_equal(got_point, point)

    def test_stack_equals_boxes_one_at_a_time(self):
        radius = 2
        centers = Box2.of_origin(1, 1).points()
        sample = sample_potential(DistributionSpec.uniform(), 7, 0,
                                  domain_for_boxes([Box2.of_origin(1, radius + 1)]))
        h = box_family(centers, radius, sample, _interaction(), 5.0, "sup")
        ev = np.linalg.eigvalsh(h)
        tpl = Box2.of_origin(1, radius)
        E = float(ev[4, 7])  # an exact eigenvalue of box 4: the guard path
        values, where = boundary_green_maxima(h, ev, tpl.center_index(),
                                              tpl.boundary_indices(), E)
        assert values[4] == np.inf and where[4] == -1
        for b in np.flatnonzero(np.arange(len(h)) != 4):
            one = boundary_green_maxima(h[b:b + 1], ev[b:b + 1], tpl.center_index(),
                                        tpl.boundary_indices(), E)
            assert (values[b], where[b]) == (one[0][0], one[1][0])
            assert np.isfinite(values[b])

    def test_resonant_box_rejected(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 2, seed=5)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        with pytest.raises(ResonantEnergyError):
            boundary_green_max(op, float(op.eigenvalues()[3]))

    def test_boundaryless_box(self):
        box, sample = box_with_sample(Point2.of((0,), (3,)), 0, seed=2)
        op = assemble_two_particle(box, sample, _interaction(), 2.0)
        assert boundary_green_max(op, -4.0) == (0.0, None)

    def test_residual_checked_per_box(self, monkeypatch):
        centers = Box2.of_origin(1, 1).points()
        sample = sample_potential(DistributionSpec.uniform(), 7, 0,
                                  domain_for_boxes([Box2.of_origin(1, 3)]))
        h = box_family(centers, 2, sample, _interaction(), 5.0, "l1")
        ev = np.linalg.eigvalsh(h)
        tpl = Box2.of_origin(1, 2)
        args = (h, ev, tpl.center_index(), tpl.boundary_indices(), -2.5)
        boundary_green_maxima(*args)
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[-1, 0] += 1e-4 * np.linalg.norm(x[-1])  # the last box only
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericError, match="residual"):
            boundary_green_maxima(*args)


class TestGreenSpectral:
    def test_single_point_factors(self):
        box, sample = box_with_sample(Point2.of((0,), (5,)), 0, seed=2)
        op1, op2 = single_particle_factors(box, sample, 2.0)
        sd1, sd2 = diagonalize(op1), diagonalize(op2)
        e = -3.0
        val = green_spectral(sd1, sd2, e, box.center, box.center)
        total = sd1.eigenvalues[0] + sd2.eigenvalues[0]
        assert val == pytest.approx(1.0 / (total - e))

    def test_symmetric_in_points(self):
        box, sample = box_with_sample(Point2.of((0,), (8,)), 2, seed=4)
        op1, op2 = single_particle_factors(box, sample, 3.0, "l1")
        sd1, sd2 = diagonalize(op1), diagonalize(op2)
        u = Point2.of((1,), (7,))
        y = Point2.of((-1,), (9,))
        e = float(sd1.eigenvalues[0] + sd2.eigenvalues[0]) - 2.0
        assert green_spectral(sd1, sd2, e, u, y) == pytest.approx(
            green_spectral(sd1, sd2, e, y, u), abs=1e-10)

    def test_agrees_with_direct_solve(self):
        rng = np.random.default_rng(31)
        inter = _interaction()
        hits = 0
        for _ in range(100):
            L = 2
            off = int(rng.integers(2 * L + 2, 8 * L))
            box, sample = box_with_sample(Point2.of((0,), (off,)), L,
                                          seed=int(rng.integers(1e9)))
            g = float(rng.uniform(1, 10))
            op = assemble_two_particle(box, sample, inter, g, "l1")
            op1, op2 = single_particle_factors(box, sample, g, "l1")
            sd1, sd2 = diagonalize(op1), diagonalize(op2)
            for e in _nonresonant_energies(op.eigenvalues(), 5, rng):
                direct, _ = green_column(op, e)
                bidx = op.boundary_indices()
                y = Point2.of(*np.split(op.points[bidx[0]], 2))
                gs = green_spectral(sd1, sd2, e, box.center, y)
                gc = direct[bidx[0]]
                assert gs == pytest.approx(gc, rel=1e-6, abs=1e-12)
                hits += 1
        assert hits == 500


def _gapped(sd, sub_op, states, min_gap=0.05):
    """Parent states whose energy keeps ``min_gap`` from the sub-box
    spectrum, as (energies, eigenvector columns)."""
    keep = [s for s in states
            if spectral_gap(sub_op, float(sd.eigenvalues[s])) >= min_gap]
    return sd.eigenvalues[keep], sd.eigenvectors[:, keep]


class TestBoundaryRecovery:
    def _parent_setup(self, seed, g=2.0, parent_radius=4):
        box = Box2.of_origin(1, parent_radius)
        sample = sample_potential(DistributionSpec.uniform(), seed, 0,
                                  domain_for_boxes([box]))
        op = assemble_two_particle(box, sample, _interaction(), g)
        sd = diagonalize(op)
        return box, sample, op, sd

    def test_zero_boundary_reconstructs_zero(self):
        box, sample, op, sd = self._parent_setup(3)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        psi = np.zeros((box.npoints, 1))
        res = boundary_recovery(sub_op, [-99.0], psi, box)
        assert res.max_error[0] == 0.0
        assert res.values.shape == (len(sub.interior_indices()), 1)
        assert (res.values == 0.0).all()

    def test_eigenpair_recovery(self):
        box, sample, op, sd = self._parent_setup(7)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        energies, psi = _gapped(sd, sub_op, range(sd.n))
        res = boundary_recovery(sub_op, energies, psi, box)
        assert (res.max_error <= 1e-6 * res.psi_sup).all()
        assert len(energies) > 10

    def test_recovered_values_are_the_interior_values(self):
        box, sample, op, sd = self._parent_setup(7)
        sub = Box2(Point2.of((1,), (0,)), 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        energies, psi = _gapped(sd, sub_op, range(sd.n))
        res = boundary_recovery(sub_op, energies, psi, box)
        interior = box.index_of(sub.points()[sub.interior_indices()])
        assert np.abs(res.values - psi[interior]).max() <= 1e-6
        assert np.array_equal(res.psi_sup, np.abs(psi[box.index_of(
            np.vstack([sub.points(), exterior_boundary(sub)]))]).max(axis=0))

    def test_scalar_sub_box_sign_convention(self):
        # 1x1 sub-box: psi(u) = -G(E; u, u) * sum of exterior-neighbour values
        box, sample, op, sd = self._parent_setup(9)
        sub = Box2.of_origin(1, 0)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        a = float(sub_op.matrix[0, 0])
        for s in range(sd.n):
            e = float(sd.eigenvalues[s])
            if abs(a - e) < 0.05:
                continue
            psi = sd.eigenvectors[:, s]
            ext = exterior_boundary(sub)
            dist = pairwise_dist(sub.points(), ext, sub_op.adjacency)
            neigh_sum = psi[box.index_of(ext[dist[0] == 1])].sum()
            expected = -neigh_sum / (a - e)
            got = psi[box.index_of(sub.center)]
            assert got == pytest.approx(expected, abs=1e-8)
            break

    def test_eigenpair_recovery_l1_adjacency(self):
        box = Box2.of_origin(1, 4)
        sample = sample_potential(DistributionSpec.uniform(), 21, 0,
                                  domain_for_boxes([box]))
        op = assemble_two_particle(box, sample, _interaction(), 3.0, "l1")
        sd = diagonalize(op)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 3.0, "l1")
        energies, psi = _gapped(sd, sub_op, range(sd.n))
        res = boundary_recovery(sub_op, energies, psi, box)
        assert (res.max_error <= 1e-6 * res.psi_sup).all()
        assert len(energies) > 10

    def test_eigenpair_recovery_two_dimensional(self):
        box = Box2.of_origin(2, 2)
        sample = sample_potential(DistributionSpec.uniform(), 8, 0,
                                  domain_for_boxes([box]))
        op = assemble_two_particle(box, sample, _interaction(), 4.0)
        sd = diagonalize(op)
        sub = Box2.of_origin(2, 1)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 4.0)
        energies, psi = _gapped(sd, sub_op, range(0, sd.n, 7))
        res = boundary_recovery(sub_op, energies, psi, box)
        assert (res.max_error <= 1e-6 * res.psi_sup).all()
        assert len(energies) > 5

    def test_non_eigenfunction_reports_residual(self):
        box, sample, op, sd = self._parent_setup(5)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        rng = np.random.default_rng(0)
        psi = rng.normal(size=(box.npoints, 1))
        res = boundary_recovery(sub_op, [-50.0], psi, box)
        assert res.max_error[0] > 1e-3  # identity fails, reported not raised

    def test_ambient_box_too_small_raises(self):
        box, sample, op, sd = self._parent_setup(3)
        sub = Box2(Point2.of((1,), (0,)), 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        small = Box2.of_origin(1, 3)  # covers the sub-box, not its shell
        with pytest.raises(PreconditionError):
            boundary_recovery(sub_op, [-99.0], np.zeros((small.npoints, 1)), small)

    def test_psi_shape_mismatch_raises(self):
        box, sample, op, sd = self._parent_setup(3)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        for psi in (sd.eigenvectors[:, :2], sd.eigenvectors[1:, :1],
                    sd.eigenvectors[:, 0]):
            with pytest.raises(PreconditionError):
                boundary_recovery(sub_op, [-99.0], psi, box)

    def test_residual_checked(self, monkeypatch):
        # recovery solves through ``_solve``, so it checks its residuals
        box, sample, op, sd = self._parent_setup(7)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        energies, psi = _gapped(sd, sub_op, range(sd.n))
        boundary_recovery(sub_op, energies, psi, box)
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[-1, 0] += 1e-4 * np.linalg.norm(x[-1])  # the last energy only
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericError, match="residual"):
            boundary_recovery(sub_op, energies, psi, box)

    def test_energy_at_sub_box_eigenvalue_raises(self):
        box, sample, op, sd = self._parent_setup(3)
        sub = Box2.of_origin(1, 2)
        sub_op = assemble_two_particle(sub, sample, _interaction(), 2.0)
        e = float(sub_op.eigenvalues()[3])
        for energies in ([e], [-99.0, e]):
            with pytest.raises(ResonantEnergyError):
                boundary_recovery(sub_op, energies,
                                  sd.eigenvectors[:, :len(energies)], box)


class TestRecoveryBatch:
    """``cli._recovery_batch`` against the dict-keyed, one-eigenpair-at-a-time
    oracle: the records must be equal, not close."""

    @pytest.mark.parametrize("adjacency,d,parent_radius,sub_radius", [
        ("l1", 1, 4, 2),
        ("sup", 1, 4, 2),
        ("l1", 1, 5, 1),
        ("sup", 1, 5, 1),
        ("sup", 2, 2, 1),
        ("sup", 1, 3, 0),
    ])
    def test_records_equal_oracle(self, adjacency, d, parent_radius, sub_radius):
        cfg = ExperimentConfig.from_dict(
            {"g": 2.0, "adjacency": adjacency, "dimension": d})
        sched = cfg.build_schedule()
        for seed in (0, 1):
            got = _recovery_batch(cfg, sched, seed, parent_radius, sub_radius)
            want = recovery_batch_by_dicts(cfg, sched, seed, parent_radius,
                                           sub_radius)
            assert got.to_record() == want.to_record()
            assert got.n_reconstructions > 0
