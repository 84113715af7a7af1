import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson2p import kernels, operators
from anderson2p.disorder import (
    DistributionSpec,
    InteractionSpec,
    domain_for_boxes,
    sample_potential,
)
from anderson2p.errors import OutOfDomainError, PreconditionError
from anderson2p.geometry import Box1, Box2, Point1, Point2
from anderson2p.operators import (
    assemble_single_particle,
    assemble_two_particle,
    box_family,
    diagonalize,
    exchange_orbits,
    family_spectra,
)

from .conftest import box_with_sample, duplicated_eigenpair, random_point2
from .oracles import (
    exchange_orbits_by_dict,
    operator_norm2,
    path_graph_eigenvalues,
    permutation_conjugate_check,
    tensor_spectrum,
    two_particle_matrix,
)


def _interaction():
    return InteractionSpec.triangular(1, 1.0)


class TestAssembly:
    def test_radius_zero_scalar(self):
        box, sample = box_with_sample(Point2.of((0,), (3,)), 0, seed=5)
        op = assemble_two_particle(box, sample, _interaction(), 2.0)
        w = sample.values[(0,)] + sample.values[(3,)]
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == pytest.approx(0.0 + 2.0 * w)

    def test_pure_hopping_grid(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1)
        for mode, degree in (("sup", 8), ("l1", 4)):
            op = assemble_two_particle(box, sample, _interaction(), 0.0, mode)
            off = op.matrix.copy()
            np.fill_diagonal(off, 0.0)
            assert off.sum(axis=1).max() <= degree
            assert np.array_equal(op.matrix, op.matrix.T)

    def test_diagonal_entries(self):
        box, sample = box_with_sample(Point2.of((0,), (1,)), 1, seed=2)
        inter = _interaction()
        g = 3.0
        op = assemble_two_particle(box, sample, inter, g)
        for i, p in enumerate(op.points):
            x = Point2.of(p[:1], p[1:])
            sep = abs(int(p[0]) - int(p[1]))
            u = inter.profile[sep] if sep <= inter.r0 else 0.0
            w = sample.values[(int(p[0]),)] + sample.values[(int(p[1]),)]
            assert op.matrix[i, i] == pytest.approx(u + g * w)

    def test_hermitian_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            box, sample = box_with_sample(random_point2(rng, 2, 4), 1,
                                          seed=int(rng.integers(1e6)))
            op = assemble_two_particle(box, sample, _interaction(), 1.5)
            assert np.array_equal(op.matrix, op.matrix.T)

    def test_domain_too_small(self):
        box = Box2(Point2.of((0,), (0,)), 2)
        sample = sample_potential(DistributionSpec.uniform(), 1, 0,
                                  np.arange(-1, 2).reshape(-1, 1))
        with pytest.raises(OutOfDomainError):
            assemble_two_particle(box, sample, _interaction(), 1.0)

    def test_single_particle(self):
        box = Box1(Point1((0,)), 1)
        sample = sample_potential(DistributionSpec.uniform(), 4, 0,
                                  np.arange(-1, 2).reshape(-1, 1))
        op = assemble_single_particle(box, sample, 2.0)
        assert np.array_equal(op.matrix, op.matrix.T)
        for i, p in enumerate(op.points):
            assert op.matrix[i, i] == pytest.approx(2.0 * sample.values[(int(p[0]),)])

    def test_single_point_single_particle(self):
        box = Box1(Point1((5,)), 0)
        sample = sample_potential(DistributionSpec.uniform(), 4, 0,
                                  np.array([[5]]))
        op = assemble_single_particle(box, sample, 3.0)
        assert op.matrix[0, 0] == pytest.approx(3.0 * sample.values[(5,)])


def _family_setup(d, radius, n_centers=6, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.integers(-4, 5, size=(n_centers, 2 * d))
    region = Box2.of_origin(d, 4 + radius)
    sample = sample_potential(DistributionSpec.uniform(), 3, 1,
                              domain_for_boxes([region]))
    return centers, sample


def _single_box(c, radius, sample, adjacency):
    d = len(c) // 2
    box = Box2(Point2.of(c[:d], c[d:]), radius)
    return assemble_two_particle(box, sample, _interaction(), 2.5, adjacency)


class TestBoxFamily:
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("d,radius", [(1, 0), (1, 2), (2, 1)])
    def test_slices_equal_single_box_assembly(self, adjacency, d, radius):
        centers, sample = _family_setup(d, radius)
        family = box_family(centers, radius, sample, _interaction(), 2.5, adjacency)
        assert family.shape == (len(centers), (2 * radius + 1) ** (2 * d),
                                (2 * radius + 1) ** (2 * d))
        for c, h in zip(centers, family):
            oracle = two_particle_matrix(c, radius, sample, _interaction(), 2.5,
                                         adjacency)
            assert np.array_equal(h, oracle)
            assert np.array_equal(_single_box(c, radius, sample, adjacency).matrix,
                                  oracle)

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("d,radius", [(1, 0), (1, 3), (2, 1)])
    def test_slices_equal_all_pairs_assembly(self, adjacency, d, radius):
        centers, sample = _family_setup(d, radius)
        inter = _interaction()
        family = box_family(centers, radius, sample, inter, 2.5, adjacency)
        for c, h in zip(centers, family):
            pts = Box2(Point2.of(c[:d], c[d:]), radius).points()
            want = kernels.adjacency_matrix(pts, adjacency)
            x1, x2 = pts[:, :d], pts[:, d:]
            np.fill_diagonal(want, inter.at_separation(np.abs(x1 - x2).max(axis=1))
                             + 2.5 * (sample.values_at_unchecked(x1)
                                      + sample.values_at_unchecked(x2)))
            assert np.array_equal(h, want)
        # the shared hop template is cached and read-only
        hop = operators._hop_template(d, radius, adjacency)
        assert hop is operators._hop_template(d, radius, adjacency)
        with pytest.raises(ValueError):
            hop[0, 0] = 1.0
        assert family.flags.writeable

    def test_workers_missing_together_build_one_hop_template(self, monkeypatch):
        # more threads than cores reach an uncached shape at once; the slow
        # build keeps them all inside the miss path together
        calls = []

        def slow_adjacency(points, adjacency):
            calls.append(adjacency)
            time.sleep(0.05)
            return kernels.adjacency_matrix(points, adjacency)

        monkeypatch.setattr(operators, "_templates", {})
        monkeypatch.setattr(operators, "adjacency_matrix", slow_adjacency)
        start = threading.Barrier(4)
        got = []

        def worker():
            start.wait(timeout=10)
            got.append(operators._hop_template(1, 2, "sup"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(got) == 4 and all(hop is got[0] for hop in got)

    @pytest.mark.parametrize("boxes_per_chunk,sizes", [
        (0, [1] * 7), (1, [1] * 7), (3, [3, 3, 1]), (7, [7]), (100, [7]),
    ])
    def test_spectra_in_order_under_any_budget(self, monkeypatch, boxes_per_chunk,
                                               sizes):
        centers, sample = _family_setup(1, 2, n_centers=7)
        n = 25
        monkeypatch.setattr(operators, "STACK_BYTES", boxes_per_chunk * 8 * n * n)
        chunks = list(family_spectra(centers, 2, sample, _interaction(), 2.5))
        assert [len(c) for c in chunks] == sizes
        expected = [np.linalg.eigvalsh(_single_box(c, 2, sample, "sup").matrix)
                    for c in centers]
        assert np.array_equal(np.concatenate(chunks), np.array(expected))


class TestExchangeOrbits:
    @pytest.mark.parametrize("r0", [1, 2])  # InteractionSpec needs r0 >= 1
    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("d,radius", [(1, 2), (2, 1)])
    def test_image_is_representative_conjugated(self, d, radius, adjacency, r0):
        # the candidate family of a parent on the diagonal
        centers = Box2.of_origin(d, 2).points()
        sample = sample_potential(DistributionSpec.uniform(), 3, 1,
                                  domain_for_boxes([Box2.of_origin(d, 2 + radius)]))
        family = box_family(centers, radius, sample,
                            InteractionSpec.triangular(r0, 1.0), 2.5, adjacency)
        tpl = Box2.of_origin(d, radius)
        perm = np.array([tpl.index_of(np.roll(p, d)) for p in tpl.points()])
        reps, orbit = exchange_orbits(centers)
        on_diagonal = int((centers[:, :d] == centers[:, d:]).all(axis=1).sum())
        assert len(reps) == (len(centers) + on_diagonal) // 2
        assert np.array_equal(orbit[reps], np.arange(len(reps)))
        images = 0
        for i, rep in enumerate(reps[orbit]):
            assert rep <= i
            if rep == i:
                continue
            assert np.array_equal(centers[i], np.roll(centers[rep], d))
            assert np.array_equal(family[i], family[rep][perm][:, perm])
            images += 1
        assert images == len(centers) - len(reps)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dict_version(self, data):
        # small coordinate ranges give exchange images, points on the
        # diagonal and repeated rows (as in a sampled family)
        d = data.draw(st.integers(1, 3))
        ncand = data.draw(st.integers(0, 40))
        span = data.draw(st.integers(0, 3))
        rows = data.draw(st.lists(st.lists(st.integers(-span, span), min_size=2 * d,
                                           max_size=2 * d),
                                  min_size=ncand, max_size=ncand))
        centers = np.array(rows, dtype=np.int64).reshape(ncand, 2 * d)
        got, want = exchange_orbits(centers), exchange_orbits_by_dict(centers)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestExchangeSectors:
    """The sector blocks of a diagonal-centred box are Q^T H Q in the
    exchange-adapted basis, to eps/2 relative per entry, built once per
    shape, and only boxes centred on the diagonal are marked."""

    @pytest.mark.parametrize("adjacency", ["sup", "l1"])
    @pytest.mark.parametrize("d,radius,rows", [(1, 6, (91, 78)), (1, 12, (325, 300)),
                                               (2, 1, (45, 36))])
    def test_blocks_are_the_conjugated_box(self, d, radius, rows, adjacency):
        center = np.array([[2] * 2 * d, [0] * d + [1] * d])
        sample = sample_potential(DistributionSpec.uniform(), 3, 1,
                                  domain_for_boxes([Box2.of_origin(d, radius + 2)]))
        stack = operators.family_stack(center, radius, [sample], _interaction(), 2.5,
                                       adjacency)
        assert stack.on_diagonal.tolist() == [True, False]
        sectors = stack.sectors
        assert tuple(len(s) for s in sectors.sites) == rows
        h = stack.matrices()[0]
        n = len(h)
        image = sectors.image
        assert np.array_equal(image[image], np.arange(n))
        sym = np.zeros((n, rows[0]))
        sym[np.arange(n), sectors.row] = sectors.weight
        anti = np.zeros((n, rows[1]))
        anti[sectors.sites[1], np.arange(rows[1])] = np.sqrt(0.5)
        anti[image[sectors.sites[1]], np.arange(rows[1])] = -np.sqrt(0.5)
        for q in (sym, anti):
            assert np.allclose(q.T @ q, np.eye(len(q.T)), rtol=0, atol=1e-15)
        assert np.abs(sym.T @ h @ anti).max() <= 1e-14 * np.abs(h).max()
        for block, q in enumerate((sym, anti)):
            (_, got), = stack.sector_pieces(np.array([0]), block)
            want = q.T @ h @ q
            assert (np.abs(got[0] - want) <= 4 * np.finfo(float).eps * np.abs(want)
                    + 1e-15).all()
        # the exchange hop sits on the block diagonals under sup only
        shift = np.diagonal(sectors.hops[0])
        assert (np.abs(shift).max() > 0) == (adjacency == "sup")
        assert np.array_equal(np.diagonal(sectors.hops[1]), -shift[sectors.row[sectors.sites[1]]])

    def test_template_shared_and_read_only(self):
        a = operators._sector_template(1, 3, "sup")
        assert a is operators._sector_template(1, 3, "sup")
        for hop in a.hops:
            with pytest.raises(ValueError):
                hop[0, 0] = 1.0
        sample = sample_potential(DistributionSpec.uniform(), 3, 1,
                                  domain_for_boxes([Box2.of_origin(1, 6)]))
        off = operators.family_stack(np.array([[1, 2], [0, -1]]), 3, [sample],
                                     _interaction(), 2.5, "sup")
        assert off.sectors is None and not off.on_diagonal.any()
        both = operators.concat_stacks([off, operators.family_stack(
            np.array([[1, 1]]), 3, [sample, sample], _interaction(), 2.5, "sup")])
        assert both.sectors is a and both.on_diagonal.tolist() == [False, False, True, True]
        assert both.take([3, 0]).on_diagonal.tolist() == [True, False]


class TestDiagonalize:
    def test_scalar(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 0)
        op = assemble_two_particle(box, sample, _interaction(), 1.0)
        sd = diagonalize(op)
        assert sd.eigenvalues[0] == pytest.approx(op.matrix[0, 0])
        assert abs(abs(sd.eigenvectors[0, 0]) - 1.0) < 1e-14

    def test_free_grid_tensor_eigenvalues(self):
        # free two-particle box, l1 hopping: eigenvalues are pairwise sums
        # of the 3-site path spectrum {-sqrt2, 0, sqrt2}
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1)
        op = assemble_two_particle(box, sample, _interaction(), 0.0, "l1")
        # interaction enters the diagonal; zero it for the free comparison
        np.fill_diagonal(op.matrix, 0.0)
        sd = np.linalg.eigvalsh(op.matrix)
        path = path_graph_eigenvalues(3)
        expected = np.sort(np.add.outer(path, path).ravel())
        assert np.abs(sd - expected).max() < 1e-8

    def test_trace_identity(self):
        box, sample = box_with_sample(Point2.of((1,), (-2,)), 2, seed=3)
        op = assemble_two_particle(box, sample, _interaction(), 2.0)
        sd = diagonalize(op)
        assert np.trace(op.matrix) == pytest.approx(sd.eigenvalues.sum(), abs=1e-8)

    def test_residuals_and_orthonormality(self):
        box, sample = box_with_sample(Point2.of((0, 0), (1, 1)), 1, seed=9)
        op = assemble_two_particle(box, sample, _interaction(), 5.0)
        sd = diagonalize(op)
        scale = max(1.0, np.abs(sd.eigenvalues).max())
        assert sd.residual_norms.max() <= 1e-8 * scale

    def test_orthonormality_checked(self, monkeypatch):
        from anderson2p.errors import NumericError

        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=9)
        op = assemble_two_particle(box, sample, _interaction(), 5.0)
        monkeypatch.setattr(np.linalg, "eigh", duplicated_eigenpair(np.linalg.eigh))
        with pytest.raises(NumericError, match="not orthonormal"):
            diagonalize(op)

    def test_eigenvalues_unchanged_by_diagonalize(self):
        # the cached eigenvalues stay eigvalsh's; eigh's differ in the last
        # bits on these radius-3 boxes
        differ = 0
        for seed in range(20):
            box, sample = box_with_sample(Point2.of((0,), (0,)), 3, seed=seed)
            op = assemble_two_particle(box, sample, _interaction(), 5.0, "sup")
            before = op.eigenvalues().tobytes()
            sd = diagonalize(op)
            assert op.eigenvalues().tobytes() == before
            differ += sd.eigenvalues.tobytes() != before
        assert differ > 0

    def test_non_finite_entries_rejected(self):
        from anderson2p.errors import NumericError

        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=9)
        op = assemble_two_particle(box, sample, _interaction(), 5.0)
        op.matrix[0, 0] = np.nan
        with pytest.raises(NumericError):
            diagonalize(op)

    def test_affine_in_g_for_scalar_box(self):
        box, sample = box_with_sample(Point2.of((2,), (4,)), 0, seed=8)
        inter = _interaction()
        w = sample.values[(2,)] + sample.values[(4,)]
        e = []
        for g in (0.0, 1.0, 2.0):
            op = assemble_two_particle(box, sample, inter, g)
            e.append(float(op.matrix[0, 0]))
        assert e[1] - e[0] == pytest.approx(w)
        assert e[2] - e[1] == pytest.approx(w)


class TestTensorSpectrum:
    def test_pairwise_sums_small(self):
        # definition check on explicit spectra
        assert np.allclose(
            np.sort(np.add.outer(np.array([1.0, 2.0]), np.array([10.0])).ravel()),
            [11.0, 12.0],
        )

    def test_interactive_rejected(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1)
        with pytest.raises(PreconditionError):
            tensor_spectrum(box, sample, _interaction(), 1.0)

    def test_matches_direct_under_l1(self):
        rng = np.random.default_rng(21)
        inter = _interaction()
        for _ in range(30):
            L = int(rng.integers(1, 3))
            off = int(rng.integers(2 * L + 2, 6 * L + 4))
            center = Point2.of((0,), (off,))
            box, sample = box_with_sample(center, L, seed=int(rng.integers(1e6)))
            g = float(rng.uniform(0.5, 10))
            ts = tensor_spectrum(box, sample, inter, g, "l1")
            direct = assemble_two_particle(box, sample, inter, g, "l1").eigenvalues()
            assert np.abs(ts - direct).max() < 1e-8

    def test_differs_under_sup(self):
        # the all-neighbour hop set moves both particles at once, so the
        # tensor sum misses those matrix elements
        center = Point2.of((0,), (10,))
        box, sample = box_with_sample(center, 1, seed=1)
        inter = _interaction()
        ts = tensor_spectrum(box, sample, inter, 0.0, "sup")
        direct = assemble_two_particle(box, sample, inter, 0.0, "sup").eigenvalues()
        assert np.abs(ts - direct).max() > 1e-3


class TestPermutationSymmetry:
    def test_diagonal_center_exact(self):
        box, sample = box_with_sample(Point2.of((0,), (0,)), 1, seed=4)
        assert permutation_conjugate_check(box, sample, _interaction(), 2.0) == 0.0

    def test_single_point_both_ways(self):
        center = Point2.of((1,), (4,))
        box = Box2(center, 0)
        sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                                  np.array([[1], [4]]))
        gap = permutation_conjugate_check(box, sample, _interaction(), 2.0)
        assert gap == 0.0

    def test_random_boxes(self):
        rng = np.random.default_rng(17)
        inter = _interaction()
        for _ in range(20):
            d = int(rng.integers(1, 3))
            L = int(rng.integers(0, 2 if d == 2 else 3))
            center = random_point2(rng, d, 6)
            box = Box2(center, L)
            from anderson2p.disorder import domain_for_boxes

            sample = sample_potential(
                DistributionSpec.uniform(), int(rng.integers(1e6)), 0,
                domain_for_boxes([box, box.sigma()]),
            )
            op = assemble_two_particle(box, sample, inter, 3.0)
            gap = permutation_conjugate_check(box, sample, inter, 3.0)
            assert gap <= 1e-8 * max(1.0, operator_norm2(op))
