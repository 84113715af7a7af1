import math

import numpy as np
import pytest

from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.cli import _recovery_batch
from anderson2p.config import ExperimentConfig
from anderson2p.errors import NumericError, PreconditionError, ResonantEnergyError
from anderson2p.geometry import Box2, Point2, exterior_boundary
from anderson2p.kernels import pairwise_dist
from anderson2p import operators, resolvent
from anderson2p.operators import (
    assemble_two_particle,
    box_family,
    diagonalize,
    family_stack,
    single_particle_factors,
)
from anderson2p.operators import SPECTRAL_RTOL
from anderson2p.resolvent import (
    RESONANCE_GUARD,
    _column_norm,
    _solve,
    boundary_green_max,
    boundary_green_maxima,
    boundary_recovery,
    green_column,
    green_spectral,
    dominance_certified,
    guard_width,
    spectra_unless_clear,
    spectral_gap,
    window_clear,
    within_guard,
)

from .conftest import box_with_sample, certify_nothing
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
                    op.matrix[None], _uncertified(op.eigenvalues()[None]), op.center_index(),
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
        values, where = boundary_green_maxima(h, _uncertified(ev), tpl.center_index(),
                                              tpl.boundary_indices(), E)
        assert values[4] == np.inf and where[4] == -1
        for b in np.flatnonzero(np.arange(len(h)) != 4):
            one = boundary_green_maxima(h[b:b + 1], _uncertified(ev[b:b + 1]),
                                        tpl.center_index(), tpl.boundary_indices(), E)
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
        args = (h, _uncertified(ev), tpl.center_index(), tpl.boundary_indices(), -2.5)
        boundary_green_maxima(*args)
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[-1, 0] += 1e-4 * np.linalg.norm(x[-1])  # the last box only
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericError, match="residual"):
            boundary_green_maxima(*args)


def _uncertified(ev):
    """The ``(clear, spectra)`` pair of a stack whose every box is guarded
    by its spectrum ``ev``."""
    return np.zeros(len(ev), dtype=bool), ev


def _certified(h):
    """The ``(clear, spectra)`` pair of a stack whose every box is certified."""
    return np.ones(len(h), dtype=bool), np.empty((0, h.shape[-1]))


def _random_symmetric(rng, nbox, n, scale=1.0):
    a = rng.normal(scale=scale, size=(nbox, n, n))
    return a + np.swapaxes(a, 1, 2)


class TestColumnNormBound:
    """``_solve`` bounds its residual with the largest column norm of
    ``H - E``, read from the matrix: never more than the spectral norm
    ``max |lambda - E|`` that the bound read from the spectrum before, so
    the check is never looser."""

    def test_never_above_the_spectral_norm(self):
        rng = np.random.default_rng(19)
        for trial in range(200):
            n = int(rng.integers(1, 13))
            a = _random_symmetric(rng, 4, n, scale=float(rng.uniform(0.1, 30)))
            spectral = np.abs(np.linalg.eigvalsh(a)).max(axis=1)
            assert np.all(_column_norm(a) <= spectral * (1 + 1e-12)), trial

    @staticmethod
    def _ones_stack(n=16):
        """H = all-ones at E = -1: H - E has spectral norm n + 1 against a
        largest column norm of sqrt(n + 3)."""
        h = np.ones((1, n, n))
        rhs = np.zeros((1, n, 1))
        rhs[0, 0] = 1.0
        return h, rhs, -1.0

    @pytest.mark.parametrize("certified", [False, True])
    def test_residual_between_the_two_bounds_raises(self, monkeypatch, certified):
        h, rhs, E = self._ones_stack()
        n = h.shape[-1]
        ev = _certified(h) if certified else _uncertified(np.linalg.eigvalsh(h))
        solved, x, residual = _solve(h, ev, E, rhs)
        assert list(solved) == [0] and residual[0] < 1e-14
        size = np.linalg.norm(x[0])
        column, spectral = np.sqrt(n + 3), n + 1.0
        assert _column_norm(h - E * np.eye(n))[0] == pytest.approx(column)
        solve = np.linalg.solve
        # (H - E) acts as the identity on vectors orthogonal to all-ones
        step = np.zeros((n, 1))
        step[0], step[1] = 1.0, -1.0
        step /= np.linalg.norm(step)

        def perturbed(scale):
            def inner(a, b):
                return solve(a, b) + scale * SPECTRAL_RTOL * size * step
            return inner

        # a residual under the column-norm bound passes
        monkeypatch.setattr(np.linalg, "solve", perturbed(0.5 * column))
        _solve(h, ev, E, rhs)
        # one between the column-norm and the spectral-norm bounds fails
        monkeypatch.setattr(np.linalg, "solve", perturbed(0.5 * (column + spectral)))
        with pytest.raises(NumericError, match="residual"):
            _solve(h, ev, E, rhs)


class TestCertifiedGuard:
    """``spectra_unless_clear`` at ``guard_width`` replaces the counter
    step's stacked ``eigvalsh``: a certified box is not within its solver
    guard, an eigenvalue at the guard is never certified, and only the
    boxes left uncertified are diagonalized."""

    def test_planted_eigenvalue_at_the_guard_never_certified(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            nbox, n = int(rng.integers(1, 6)), int(rng.integers(2, 30))
            E = float(rng.choice([0.0, rng.uniform(-40, 40)]))
            lam = rng.uniform(-30, 30, size=(nbox, n))
            q, _ = np.linalg.qr(rng.normal(size=(nbox, n, n)))
            box = int(rng.integers(nbox))
            edge = np.abs(lam[box]).max()
            guard = RESONANCE_GUARD * max(1.0, abs(E), edge)
            sign, side = rng.choice([-1.0, 1.0], size=2)
            lam[box, 0] = E + sign * guard * (1 + side * 1e-9)
            h = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
            h = 0.5 * (h + np.swapaxes(h, 1, 2))
            before = h.copy()
            clear, ev = spectra_unless_clear(h, E, guard_width(h, E))
            assert not clear[box], trial
            assert np.array_equal(h, before)
            assert np.array_equal(ev, np.linalg.eigvalsh(h[~clear]))

    def test_certified_stack_is_outside_every_guard(self):
        rng = np.random.default_rng(29)
        certified = 0
        for trial in range(100):
            h = _random_symmetric(rng, 8, int(rng.integers(2, 40)),
                                  scale=float(rng.uniform(0.01, 20)))
            E = float(rng.uniform(-5, 5))
            w = guard_width(h, E)
            ev = np.linalg.eigvalsh(h)
            edge = np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))
            assert within_guard(w, E, edge).sum() == 0
            clear, _ = spectra_unless_clear(h, E, w)
            certified += clear.all()
            gap = np.abs(ev - E).min(axis=1)
            assert np.all(gap[clear] >= w[clear])
            assert not within_guard(gap, E, edge)[clear].any()
        assert certified > 90

    def test_uncertified_stack_gets_its_spectra(self, monkeypatch):
        h = _random_symmetric(np.random.default_rng(31), 5, 9)
        monkeypatch.setattr("anderson2p.resolvent.window_clear", certify_nothing)
        clear, ev = spectra_unless_clear(h, 0.3, 1e-9)
        assert not clear.any() and np.array_equal(ev, np.linalg.eigvalsh(h))


class TestWindowClearPerBox:
    """Each box's ``window_clear`` verdict in a stack equals its verdict
    alone, whatever the stack's order or pieces, and a ``BoxStack`` (discs
    from its diagonals, no matrix built for them) gets the verdicts of its
    built matrices."""

    @staticmethod
    def _stack(adjacency):
        """Three samples' radius-4 boxes at the 25 centres of a radius-2
        box, and one energy per box: at an eigenvalue of the box, just past
        the window, or generic."""
        centers = Box2.of_origin(1, 2).points()
        samples = [sample_potential(DistributionSpec.uniform(), seed, 0,
                                    domain_for_boxes([Box2.of_origin(1, 6)]))
                   for seed in (3, 4, 5)]
        stack = family_stack(centers, 4, samples, _interaction(), 5.0, adjacency)
        ev = np.linalg.eigvalsh(stack.matrices())
        w = math.exp(-2.0)
        rng = np.random.default_rng(9)
        pick = rng.integers(0, ev.shape[1], len(ev))
        near = ev[np.arange(len(ev)), pick]
        kind = np.arange(len(ev)) % 3
        E = np.where(kind == 0, near, np.where(kind == 1, near + 1.5 * w,
                                               rng.uniform(-1.0, 11.0, len(ev))))
        return stack, E, w

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_verdicts_do_not_depend_on_the_stack(self, monkeypatch, adjacency):
        stack, E, w = self._stack(adjacency)
        h = stack.matrices()
        verdicts = window_clear(stack, E, w)
        assert window_clear(h, E, w).tolist() == verdicts.tolist()
        alone = [bool(window_clear(h[i:i + 1], E[i], w)[0]) for i in range(len(h))]
        assert alone == verdicts.tolist()
        order = np.random.default_rng(1).permutation(len(h))
        assert window_clear(h[order], E[order], w).tolist() == verdicts[order].tolist()
        monkeypatch.setattr(operators, "STACK_BYTES", 3 * 8 * h.shape[-1] ** 2)
        assert window_clear(stack, E, w).tolist() == verdicts.tolist()
        gaps = np.abs(np.linalg.eigvalsh(h) - E[:, None]).min(axis=1)
        assert (gaps[verdicts] >= w).all()
        assert verdicts.any() and not verdicts.all()

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_cholesky_stage_reached_and_split(self, monkeypatch, adjacency):
        """Some boxes reach the Cholesky stage, some of those are certified
        there and some are not, so stacks that fail are split."""
        stack, E, w = self._stack(adjacency)
        sizes, cholesky = [], np.linalg.cholesky

        def counted(a):
            sizes.append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        verdicts = window_clear(stack, E, w)
        assert sizes and 1 in sizes and max(sizes) > 1
        discs = np.abs(stack.diagonal - E[:, None]) - stack.row_sums()
        assert (verdicts & (discs.min(axis=1) < w)).any()


def _solve_by_identity(h, E, rhs):
    """The solution and residual norms of ``(H - E) x = b`` with ``H - E``
    formed as ``H - E * I``, as a reference for ``_solve``'s bits."""
    n = h.shape[-1]
    E = np.broadcast_to(np.asarray(E, dtype=np.float64), h.shape[:1])[:, None, None]
    x = np.linalg.solve(h - E * np.eye(n), rhs)
    r = h @ x - E * x - rhs
    return x, np.sqrt(np.swapaxes(r, 1, 2) @ r)[:, 0, 0]


class TestSolvePaths:
    """A certified stack (no spectrum) is solved in place, and a stack with
    spectra has the boxes the guard leaves gathered first.  Either way a
    box's solution and residual norm are the same bits, and those of a
    solve of ``H - E * I``; the inputs are left as they were."""

    def test_certified_path_equals_spectrum_path(self):
        rng = np.random.default_rng(37)
        for trial in range(40):
            nbox, n = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            h = _random_symmetric(rng, nbox, n, scale=float(rng.uniform(0.1, 10)))
            E = rng.uniform(-3, 3, size=nbox) if trial % 2 else float(rng.uniform(-3, 3))
            rhs = rng.normal(size=(nbox, n, 1))
            before = h.copy(), rhs.copy()
            ev = np.linalg.eigvalsh(h)
            certified = _solve(h, _certified(h), E, rhs)
            spectrum = _solve(h, _uncertified(ev), E, rhs)
            assert list(certified[0]) == list(spectrum[0]) == list(range(nbox)), trial
            for a, b in zip(certified[1:], spectrum[1:]):
                assert np.array_equal(a, b), trial
            for a, b in zip(certified[1:], _solve_by_identity(h, E, rhs)):
                assert np.array_equal(a, b), trial
            assert np.array_equal(h, before[0]) and np.array_equal(rhs, before[1])

    def test_guarded_boxes_leave_the_stack(self):
        rng = np.random.default_rng(41)
        nbox, n = 6, 12
        lam = rng.uniform(-4, 4, size=(nbox, n))
        E = rng.uniform(-1, 1, size=nbox)
        lam[[1, 4], 3] = E[[1, 4]]  # an eigenvalue at the energy: within the guard
        q, _ = np.linalg.qr(rng.normal(size=(nbox, n, n)))
        h = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        rhs = rng.normal(size=(nbox, n, 1))
        solved, x, residual = _solve(h, _uncertified(np.linalg.eigvalsh(h)), E, rhs)
        assert list(solved) == [0, 2, 3, 5]
        alone = _solve(h[solved], _certified(h[solved]), E[solved], rhs[solved])
        assert np.array_equal(alone[1], x) and np.array_equal(alone[2], residual)

    def test_mixed_stack_equals_each_box_alone(self):
        """Certified boxes, boxes guarded by their spectra and one box in
        the guard, decided in one ``_solve``: each solved box gets the bits
        of solving it alone."""
        rng = np.random.default_rng(43)
        for trial in range(20):
            nbox, n = int(rng.integers(3, 10)), int(rng.integers(2, 30))
            lam = rng.uniform(-4, 4, size=(nbox, n))
            E = rng.uniform(-1, 1, size=nbox)
            resonant = int(rng.integers(nbox))
            lam[resonant, 1] = E[resonant]
            q, _ = np.linalg.qr(rng.normal(size=(nbox, n, n)))
            h = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
            h = 0.5 * (h + np.swapaxes(h, 1, 2))
            rhs = rng.normal(size=(nbox, n, 1))
            clear = rng.random(nbox) < 0.5
            clear[resonant] = False
            clear[(resonant + 1) % nbox], clear[(resonant + 2) % nbox] = True, False
            before = h.copy(), rhs.copy()
            solved, x, residual = _solve(h, (clear, np.linalg.eigvalsh(h[~clear])), E, rhs)
            assert list(solved) == [b for b in range(nbox) if b != resonant], trial
            for i, b in enumerate(solved):
                one = _solve(h[b:b + 1], _certified(h[b:b + 1]), E[b], rhs[b:b + 1])
                assert np.array_equal(one[1][0], x[i]), trial
                assert np.array_equal(one[2][0], residual[i]), trial
            assert np.array_equal(h, before[0]) and np.array_equal(rhs, before[1])


def _sector_family(d, radius, adjacency, interacting, seeds=(3, 4), g=5.0):
    """The radius-``radius`` boxes at the 3**d diagonal centres of a
    radius-1 box and at every tenth of its other centres, under each
    sample, at coupling ``g``, as a ``BoxStack`` and as its built
    matrices."""
    inter = _interaction() if interacting else InteractionSpec(1, (0.0, 0.0))
    points = Box2.of_origin(d, 1).points()
    diagonal = (points[:, :d] == points[:, d:]).all(axis=1)
    centers = points[diagonal | (np.arange(len(points)) % 10 == 1)]
    samples = [sample_potential(DistributionSpec.uniform(), seed, 0,
                                domain_for_boxes([Box2.of_origin(d, radius + 1)]))
               for seed in seeds]
    stack = family_stack(centers, radius, samples, inter, g, adjacency)
    return stack, stack.matrices()


_SECTOR_CASES = [(1, 3, "sup"), (1, 3, "l1"), (1, 6, "sup"), (1, 6, "l1"),
                 (2, 1, "sup"), (2, 1, "l1")]


class TestExchangeSectors:
    """A diagonal-centred box of a ``BoxStack`` is decided in its exchange
    sectors; the dense matrix of the whole box is the oracle.  Its merged
    spectrum, its Green's column, its window verdicts and its solver guard
    hold for the whole box, and a box off the diagonal is decided on its
    whole matrix as before."""

    @pytest.mark.parametrize("interacting", [True, False], ids=["U", "no-U"])
    @pytest.mark.parametrize("d,radius,adjacency", _SECTOR_CASES)
    def test_merged_spectra_equal_the_whole_box(self, d, radius, adjacency, interacting):
        stack, h = _sector_family(d, radius, adjacency, interacting)
        assert stack.on_diagonal.sum() == 2 * 3 ** d and not stack.on_diagonal.all()
        ev = np.linalg.eigvalsh(h)
        clear, spectra = spectra_unless_clear(stack, 0.0, np.full(len(h), np.inf))
        assert not clear.any()
        edge = np.abs(ev).max(axis=1, keepdims=True)
        assert (np.abs(spectra - ev) <= 1e-12 * edge).all()
        assert np.array_equal(spectra[~stack.on_diagonal], ev[~stack.on_diagonal])

    @pytest.mark.parametrize("interacting", [True, False], ids=["U", "no-U"])
    @pytest.mark.parametrize("d,radius,adjacency", _SECTOR_CASES)
    def test_green_column_equals_the_dense_solve(self, d, radius, adjacency, interacting):
        stack, h = _sector_family(d, radius, adjacency, interacting)
        n, c = h.shape[-1], Box2.of_origin(d, radius).center_index()
        ev = np.linalg.eigvalsh(h)
        E = np.array([_nonresonant_energies(e, 1, np.random.default_rng(i))[0]
                      for i, e in enumerate(ev)])
        rhs = np.zeros((len(h), n, 1))
        rhs[:, c] = 1.0
        solved, x, residual = _solve(stack, (np.ones(len(h), dtype=bool), np.empty((0, n))),
                                     E, rhs)
        dense = np.linalg.solve(h - E[:, None, None] * np.eye(n), rhs)
        assert list(solved) == list(range(len(h)))
        assert (np.abs(x - dense) <= 1e-12 * np.abs(dense).max(axis=(1, 2), keepdims=True)).all()
        assert (residual <= 1e-12).all()
        whole = ~stack.on_diagonal
        alone = _solve(h[whole], _certified(h[whole]), E[whole], rhs[whole])
        assert np.array_equal(x[whole], alone[1]) and np.array_equal(residual[whole], alone[2])
        # the boundary maxima read the lifted column
        bidx = Box2.of_origin(d, radius).boundary_indices()
        values, _ = boundary_green_maxima(stack, spectra_unless_clear(stack, E, guard_width(stack, E)),
                                          c, bidx, E)
        want = np.abs(dense[:, bidx, 0]).max(axis=1)
        assert (np.abs(values - want) <= 1e-12 * want).all()

    @pytest.mark.parametrize("d,radius,adjacency", _SECTOR_CASES)
    def test_certified_boxes_have_the_dense_gap(self, d, radius, adjacency):
        """Energies just inside and just outside the window of an eigenvalue
        of each box, with the width from each box's spectral edge: every
        box certified through its sectors has a dense ``eigvalsh`` gap of at
        least w, and some are certified."""
        stack, h = _sector_family(d, radius, adjacency, True, seeds=(3, 4, 5, 6))
        ev = np.linalg.eigvalsh(h)
        rng = np.random.default_rng(radius)
        w = 1e-2
        pick = ev[np.arange(len(h)), rng.integers(0, h.shape[-1], len(h))]
        E = pick + rng.choice([-1.0, 1.0], len(h)) * w * (1 + rng.choice([-1e-9, 1e-9, 0.5], len(h)))
        clear, spectra = spectra_unless_clear(stack, E, w)
        gaps = np.abs(ev - E[:, None]).min(axis=1)
        assert (gaps[clear] >= w).all()
        marked = stack.on_diagonal
        assert (clear & marked).any() and (~clear & marked).any()
        assert window_clear(h, E, w)[~marked].tolist() == clear[~marked].tolist()
        # the guard: a certified box is outside its solver guard
        g = guard_width(stack, E)
        clear, _ = spectra_unless_clear(stack, E, g)
        edge = np.abs(ev).max(axis=1)
        assert not within_guard(gaps, E, edge)[clear].any()

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_stack_off_the_diagonal_keeps_its_bits(self, adjacency):
        """A stack with no diagonal-centred box has no sectors and gets the
        verdicts, spectra and solutions of its built matrices, bit for
        bit."""
        centers = np.array([[1, -1], [2, 0], [-1, 1], [0, 3]])
        sample = sample_potential(DistributionSpec.uniform(), 8, 0,
                                  domain_for_boxes([Box2.of_origin(1, 8)]))
        stack = family_stack(centers, 4, [sample], _interaction(), 5.0, adjacency)
        h = stack.matrices()
        assert stack.sectors is None and not stack.on_diagonal.any()
        ev = np.linalg.eigvalsh(h)
        E = ev[:, [3, 40, 7, 60]].diagonal() + np.array([0.0, 0.3, 1e-3, 0.05])
        w = guard_width(stack, E) * np.array([1.0, 1.0, 1e9, 1e10])
        pair = spectra_unless_clear(stack, E, w)
        dense = spectra_unless_clear(h, E, w)
        assert pair[0].tolist() == dense[0].tolist() and np.array_equal(pair[1], dense[1])
        tpl = Box2.of_origin(1, 4)
        got = boundary_green_maxima(stack, pair, tpl.center_index(), tpl.boundary_indices(), E)
        want = boundary_green_maxima(h, dense, tpl.center_index(), tpl.boundary_indices(), E)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_pieces_do_not_reach_the_verdicts(self, monkeypatch):
        stack, h = _sector_family(1, 3, "sup", True, seeds=(3, 4, 5))
        E = np.linspace(-1.0, 12.0, len(h))
        want = spectra_unless_clear(stack, E, 0.05)
        monkeypatch.setattr(operators, "STACK_BYTES", 1)
        got = spectra_unless_clear(stack, E, 0.05)
        assert got[0].tolist() == want[0].tolist() and np.array_equal(got[1], want[1])

    def test_antisymmetric_right_hand_side_rejected(self):
        stack, h = _sector_family(1, 2, "sup", True)
        rhs = np.zeros((len(h), h.shape[-1], 1))
        rhs[:, 1] = 1.0  # a site off the diagonal, without its exchange image
        with pytest.raises(PreconditionError, match="symmetric"):
            _solve(stack, (np.ones(len(h), dtype=bool), np.empty((0, h.shape[-1]))), 0.1, rhs)


def _dominance_case(d, radius, adjacency, interacting):
    """``_sector_family``'s boxes at g = 100 and one energy per box,
    cycling through three kinds: the midpoint of the widest gap between
    two of the box's diagonal entries, inside the spectrum's range, and
    energies below and above every disc.  Returns the stack, the energies,
    the centre and the dense ``|G(E; c, y)|`` at every site y,
    ``(nbox, n)``."""
    stack, h = _sector_family(d, radius, adjacency, interacting, seeds=(3, 4, 5), g=100.0)
    n, c = h.shape[-1], Box2.of_origin(d, radius).center_index()
    rows = np.arange(len(h))
    diagonal = np.sort(stack.diagonal, axis=1)
    widest = np.diff(diagonal, axis=1).argmax(axis=1)
    rng = np.random.default_rng(7 * d + radius)
    reach = stack.row_sums().max() + rng.uniform(0.1, 3.0, len(h))
    E = np.select([rows % 3 == 0, rows % 3 == 1],
                  [0.5 * (diagonal[rows, widest] + diagonal[rows, widest + 1]),
                   diagonal[:, 0] - reach], diagonal[:, -1] + reach)
    rhs = np.zeros((len(h), n, 1))
    rhs[:, c] = 1.0
    dense = np.abs(np.linalg.solve(h - E[:, None, None] * np.eye(n), rhs)[:, :, 0])
    return stack, E, c, dense


def _dominant(stack, E):
    """The boxes whose discs clear their solver guard: strictly dominant."""
    E = np.asarray(E, dtype=np.float64)
    shift = np.abs(stack.diagonal - E[:, None])
    return resolvent._discs_clear(shift, stack.row_sums(), E, guard_width(stack, E))[0]


class TestDominanceCertificate:
    """``dominance_certified`` certifies a strictly dominant box's Green's
    function from the centre below a threshold from its diagonal and
    |hop| alone.  Its bound is never below the dense value, at any site, so
    a box is certified only where the dense solve is below the threshold
    too; it certifies no box whose discs come within the solver guard."""

    @pytest.mark.parametrize("interacting", [True, False], ids=["U", "no-U"])
    @pytest.mark.parametrize("d,radius,adjacency", _SECTOR_CASES[:2] + _SECTOR_CASES[4:])
    def test_bound_is_at_least_the_dense_value(self, d, radius, adjacency, interacting):
        """Each site as a one-site boundary, at a threshold of the dense
        |G(c, y)| itself: never certified.  At twice it, a share of the
        (box, site) pairs of the dominant boxes is.  The energies of the
        first kind lie inside the spectrum's range, and are dominant in
        some boxes, apart from d = 2 under ``sup``, where a site has 80
        neighbours."""
        stack, E, c, dense = _dominance_case(d, radius, adjacency, interacting)
        ev = np.linalg.eigvalsh(stack.matrices())
        kind = np.arange(len(E)) % 3
        assert ((ev[:, 0] < E) & (E < ev[:, -1]))[kind == 0].all()
        dominant = _dominant(stack, E)
        assert dominant[kind > 0].all()
        assert dominant[kind == 0].any() == ((d, adjacency) != (2, "sup"))
        above = 0
        for i in range(len(E)):
            one = stack.take([i])
            for y in range(dense.shape[1]):
                site = np.array([y])
                assert not dominance_certified(one, E[i:i + 1], c, site, dense[i, y])[0], (i, y)
                above += dominance_certified(one, E[i:i + 1], c, site, 2 * dense[i, y])[0]
        assert above >= 0.25 * dominant.sum() * dense.shape[1]

    @pytest.mark.parametrize("d,radius,adjacency", _SECTOR_CASES)
    def test_certifies_the_dominant_boxes_alone(self, d, radius, adjacency):
        """With no threshold to meet, the certified boxes are the dominant
        ones; a box whose discs come near its energy (every fourth, at one
        of its diagonal entries) never is."""
        stack, E, c, _ = _dominance_case(d, radius, adjacency, True)
        E[::4] = stack.diagonal[::4, 1]
        bidx = Box2.of_origin(d, radius).boundary_indices()
        dominant = _dominant(stack, E)
        assert dominance_certified(stack, E, c, bidx, np.inf).tolist() == dominant.tolist()
        assert not dominant[::4].any() and dominant.any()

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    def test_verdicts_do_not_depend_on_the_stack(self, adjacency):
        stack, E, c, dense = _dominance_case(1, 3, adjacency, True)
        bidx = Box2.of_origin(1, 3).boundary_indices()
        threshold = float(np.median(dense[:, bidx].max(axis=1)))
        verdicts = dominance_certified(stack, E, c, bidx, threshold)
        assert verdicts.any() and not verdicts.all()
        alone = [bool(dominance_certified(stack.take([i]), E[i:i + 1], c, bidx, threshold)[0])
                 for i in range(len(E))]
        assert alone == verdicts.tolist()
        order = np.random.default_rng(2).permutation(len(E))
        assert (dominance_certified(stack.take(order), E[order], c, bidx, threshold).tolist()
                == verdicts[order].tolist())


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
