import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson2p.disorder import domain_for_boxes
from anderson2p.errors import DimensionMismatchError, InvalidInputError
from anderson2p.geometry import (
    Box1,
    Box2,
    Point1,
    Point2,
    exterior_boundary,
    is_interactive,
    pair_separation,
    projections,
    sup_dist,
    unique_rows,
)
from .conftest import random_point2
from .oracles import box_distance


def P2(x1, x2):
    return Point2.of(x1, x2)


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus between consecutive exchange-inflated scale boxes around a
    center.

    The inflation ``b_k = 1 + R(u)/L_k`` (with ``R(u)`` the distance from
    the center to its exchange image) makes the inner box contain the union
    of the scale-k box and its exchange image.
    """

    center: Point2
    k: int
    schedule: "object"  # ScaleSchedule

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInputError("scale index must be >= 0")

    def exchange_radius(self) -> int:
        return sup_dist(self.center.sigma(), self.center)

    def _inflated_radius(self, k: int) -> int:
        lk = self.schedule.L[k]
        bk = 1.0 + self.exchange_radius() / lk
        return math.ceil(bk * lk)

    @property
    def inner_radius(self) -> int:
        return self._inflated_radius(self.k)

    @property
    def outer_radius(self) -> int:
        return self._inflated_radius(self.k + 1)

    def mirror_union(self) -> np.ndarray:
        """Union of the scale-k box and its exchange image (deduplicated)."""
        lk = self.schedule.L[self.k]
        a = Box2(self.center, lk).points()
        b = Box2(self.center.sigma(), lk).points()
        return unique_rows(np.vstack([a, b]))

    def points(self) -> np.ndarray:
        outer = Box2(self.center, self.outer_radius)
        dist = outer.center_dists()
        return outer.points()[dist > self.inner_radius]


def annulus(u: Point2, k: int, schedule) -> np.ndarray:
    """Configurations in the scale-(k+1) inflated box but not the scale-k
    one; disjoint from the union of the scale-k box and its exchange
    image."""
    return AnnulusSpec(u, k, schedule).points()


class TestSupNorm:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            P2((1, 2), (3,))


class TestPermute:
    def test_swaps(self):
        assert P2((1, 2), (3, 4)).sigma() == P2((3, 4), (1, 2))

    def test_diagonal_fixed(self):
        assert P2((5,), (5,)).sigma() == P2((5,), (5,))

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_involution(self, a, b, c, d):
        x = P2((a, b), (c, d))
        assert x.sigma().sigma() == x


class TestEnumerateBox:
    def test_count_d1_l1(self):
        assert len(Box2(P2((0,), (0,)), 1).points()) == 9

    def test_radius_zero_single_point(self):
        pts = Box2(P2((3, 4), (5, 6)), 0).points()
        assert pts.shape == (1, 4)
        assert tuple(pts[0]) == (3, 4, 5, 6)

    def test_lexicographic_first(self):
        pts = Box2(P2((0,), (0,)), 2).points()
        assert len(pts) == 25
        assert tuple(pts[0]) == (-2, -2)

    def test_sorted_and_unique(self):
        pts = Box2(P2((1,), (-1,)), 2).points()
        as_tuples = [tuple(p) for p in pts]
        assert as_tuples == sorted(set(as_tuples))

    def test_membership_matches_distance(self):
        box = Box2(P2((0, 1), (2, -1)), 1)
        pts = box.points()
        center = box.center.to_array()
        assert (np.abs(pts - center).max(axis=1) <= box.radius).all()
        assert len(pts) == box.npoints


class TestBoundaries:
    def test_interior_d1_l1(self):
        assert len(Box2(P2((0,), (0,)), 1).boundary_indices()) == 8

    def test_interior_shell_count(self):
        assert len(Box2(P2((0,), (0,)), 2).boundary_indices()) == 25 - 9

    def test_interior_radius_zero_empty(self):
        assert len(Box2(P2((0,), (0,)), 0).boundary_indices()) == 0

    def test_exterior_d1_l1(self):
        assert len(exterior_boundary(Box2(P2((0,), (0,)), 1))) == 25 - 9

    def test_exterior_d2_l0(self):
        assert len(exterior_boundary(Box2(P2((0, 0), (0, 0)), 0))) == 3**4 - 1

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2))
    @settings(max_examples=30)
    def test_disjoint(self, a, b, L):
        box = Box2(P2((a,), (b,)), L)
        inner = {tuple(p) for p in box.points()[box.boundary_indices()]}
        outer = {tuple(p) for p in exterior_boundary(box)}
        assert not inner & outer

    def test_shell_plus_interior_partition(self):
        # |boundary| + |interior| = |box| for radius >= 1
        for L in (1, 2, 3):
            box = Box2(P2((0,), (0,)), L)
            assert len(box.boundary_indices()) + len(box.interior_indices()) == box.npoints

    def test_boundary_matches_neighbor_scan(self):
        from .oracles import boundary_by_neighbor_scan

        box = Box2(P2((0,), (1,)), 2)
        pts = box.points()
        inside = {tuple(int(c) for c in p) for p in pts}
        scan = set(boundary_by_neighbor_scan(pts, inside))
        shell = {tuple(int(c) for c in p) for p in box.points()[box.boundary_indices()]}
        assert scan == shell


class TestIndexOf:
    @pytest.mark.parametrize("box", [
        Box1(Point1((2, -1)), 2),
        Box2(P2((1,), (-3,)), 2),
        Box2(P2((0, 1), (2, 0)), 1),
    ])
    def test_array_positions_match_points(self, box):
        pts = box.points()
        assert np.array_equal(box.index_of(pts), np.arange(len(pts)))
        assert [box.index_of(p) for p in pts] == list(range(len(pts)))
        assert box.index_of(box.center) == box.center_index()

    def test_array_subset_in_any_order(self):
        box = Box2(P2((1,), (-3,)), 2)
        order = np.array([7, 0, 24, 3])
        assert np.array_equal(box.index_of(box.points()[order]), order)

    def test_outside_point_raises(self):
        box = Box2(P2((1,), (-3,)), 1)
        with pytest.raises(KeyError):
            box.index_of(P2((3,), (-3,)))
        with pytest.raises(KeyError):
            Box1(Point1((0,)), 1).index_of((-2,))

    def test_array_with_an_outside_row_raises(self):
        box = Box2(P2((0,), (0,)), 1)
        pts = np.vstack([box.points(), exterior_boundary(box)[:1]])
        with pytest.raises(KeyError):
            box.index_of(pts)
        with pytest.raises(KeyError):
            box.index_of(box.points()[:, :1])


class TestDistantPredicate:
    def test_far_apart(self):
        b1 = Box2(P2((0,), (0,)), 2)
        b2 = Box2(P2((100,), (100,)), 2)
        assert pair_separation(b1.center, b2.center) > 8 * 10

    def test_exchange_image_coincides(self):
        b1 = Box2(P2((0,), (50,)), 2)
        b2 = Box2(P2((50,), (0,)), 2)
        assert not pair_separation(b1.center, b2.center) > 8 * 10

    def test_same_center_never_distant(self):
        b = Box2(P2((3,), (7,)), 1)
        assert not pair_separation(b.center, b.center) > 8 * 0

    @given(st.data())
    @settings(max_examples=50)
    def test_symmetrised_metric_identity(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        u = random_point2(rng, 2, 20)
        v = random_point2(rng, 2, 20)
        lhs = min(sup_dist(u, v), sup_dist(u.sigma(), v))
        rhs = min(sup_dist(u.sigma(), v.sigma()), sup_dist(u, v.sigma()))
        assert lhs == rhs
        assert pair_separation(u, v) == lhs


class TestInteractive:
    def test_separated_not_interactive(self):
        assert not is_interactive(Box2(P2((0,), (10,)), 2), 1)

    def test_diagonal_always_interactive(self):
        for L in (0, 1, 5):
            assert is_interactive(Box2(P2((0,), (0,)), L), 1)

    def test_boundary_case(self):
        assert is_interactive(Box2(P2((0,), (5,)), 2), 1)

    def test_matches_direct_layer_intersection(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = random_point2(rng, 1, 8)
            box = Box2(c, int(rng.integers(0, 3)))
            pts = box.points()
            direct = bool((np.abs(pts[:, 0] - pts[:, 1]) <= 1).any())
            assert is_interactive(box, 1) == direct


class TestProjections:
    def test_disjoint_projections(self):
        box = Box2(P2((0,), (10,)), 2)
        p1, p2 = projections(box)
        assert p1.points().ravel().tolist() == [-2, -1, 0, 1, 2]
        assert p2.points().ravel().tolist() == [8, 9, 10, 11, 12]
        assert len(domain_for_boxes([box])) == 10

    def test_diagonal_center_projections_coincide(self):
        box = Box2(P2((3, 3), (3, 3)), 1)
        p1, p2 = projections(box)
        assert np.array_equal(p1.points(), p2.points())
        assert len(domain_for_boxes([box])) == 9

    def test_exchange_swaps_projections(self):
        box = Box2(P2((0, 1), (5, -2)), 1)
        p1, p2 = projections(box)
        q1, q2 = projections(box.sigma())
        assert np.array_equal(q1.points(), p2.points())
        assert np.array_equal(q2.points(), p1.points())


class TestUniqueRows:
    def test_matches_numpy_unique(self):
        rng = np.random.default_rng(8)
        shapes = [(n, c) for c in (1, 2, 3, 4) for n in (0, 1, 2, 7, 60)]
        for n, c in shapes:
            for hi in (2, 5, 1000):
                a = rng.integers(-hi, hi, size=(n, c), dtype=np.int64)
                got, ref = unique_rows(a), np.unique(a, axis=0)
                assert got.dtype == ref.dtype
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)


class TestAnnulus:
    def test_diagonal_center_no_inflation(self, desk):
        u = P2((0,), (0,))
        spec = AnnulusSpec(u, 0, desk)
        assert spec.exchange_radius() == 0
        assert spec.inner_radius == desk.L[0]
        assert spec.outer_radius == desk.L[1]

    def test_cardinality_nested_boxes(self, desk):
        u = P2((1,), (4,))
        spec = AnnulusSpec(u, 0, desk)
        pts = spec.points()
        d2 = 2 * u.d
        expected = (2 * spec.outer_radius + 1) ** d2 - (2 * spec.inner_radius + 1) ** d2
        assert len(pts) == expected

    def test_mirror_union_excluded(self, desk):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_point2(rng, 1, 3)
            spec = AnnulusSpec(u, 0, desk)
            ann = {tuple(p) for p in annulus(u, 0, desk)}
            mirror = {tuple(p) for p in spec.mirror_union()}
            assert not ann & mirror
            # containment: the mirrored union sits inside the inflated box
            inner = Box2(u, spec.inner_radius)
            assert all(
                max(abs(a - b) for a, b in zip(m, inner.center.flat)) <= spec.inner_radius
                for m in mirror
            )


class TestProjectionDisjointness:
    """Geometric core behind the singular-box counters: interactive,
    mutually distant boxes have disjoint merged projections."""

    @staticmethod
    def _random_instance(rng, d, L, r0):
        span = 40 * L
        while True:
            u1 = rng.integers(-span, span, size=d)
            u = Point2.of(u1, u1 + rng.integers(-(2 * L + r0), 2 * L + r0 + 1, size=d))
            v1 = rng.integers(-span, span, size=d)
            v = Point2.of(v1, v1 + rng.integers(-(2 * L + r0), 2 * L + r0 + 1, size=d))
            bu, bv = Box2(u, L), Box2(v, L)
            if (
                box_distance(bu, bv) > 8 * L
                and box_distance(bu.sigma(), bv) > 8 * L
            ):
                return bu, bv

    def test_disjoint_and_far(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(1, 3))
            r0 = 1
            L = int(rng.integers(r0 + 1, 6))
            bu, bv = self._random_instance(rng, d, L, r0)
            pu1, pu2 = projections(bu)
            pv1, pv2 = projections(bv)
            mu, mv = domain_for_boxes([bu]), domain_for_boxes([bv])
            set_u = {tuple(p) for p in mu}
            set_v = {tuple(p) for p in mv}
            assert not set_u & set_v
            for a in (pu1, pu2):
                for b in (pv1, pv2):
                    gap = max(
                        abs(x - y) - a.radius - b.radius
                        for x, y in zip(a.center.coords, b.center.coords)
                    )
                    assert gap > 2 * L
