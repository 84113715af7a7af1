import numpy as np
import pytest

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

    @pytest.mark.parametrize("boxes_per_chunk,sizes", [
        (0, [1] * 7), (1, [1] * 7), (3, [3, 3, 1]), (7, [7]), (100, [7]),
    ])
    def test_spectra_in_order_under_any_budget(self, monkeypatch, boxes_per_chunk,
                                               sizes):
        centers, sample = _family_setup(1, 2, n_centers=7)
        n = 25
        monkeypatch.setattr(operators, "FAMILY_BYTES", boxes_per_chunk * 8 * n * n)
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
