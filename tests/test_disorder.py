import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anderson2p.disorder import (
    DistributionSpec,
    InteractionSpec,
    sample_potential,
)
from anderson2p.errors import InvalidInputError, OutOfDomainError
from anderson2p.geometry import Point1, Point2, sup_dist1

from .oracles import density_bound, interaction_bound, sample_value, values_at


def sites_1d(n):
    return np.arange(n, dtype=np.int64).reshape(-1, 1)


def interaction_u(spec: InteractionSpec, x: Point2) -> float:
    """Interaction energy of a configuration: profile value at the particle
    separation, zero beyond the range."""
    s = sup_dist1(x.x1, x.x2)
    return float(spec.profile[s]) if s <= spec.r0 else 0.0


def field_w(sample, x: Point2) -> float:
    """Two-particle potential field V(x1) + V(x2); exchange symmetric."""
    return sample_value(sample, x.x1) + sample_value(sample, x.x2)


class TestDistributionSpec:
    def test_uniform_support(self):
        spec = DistributionSpec.uniform(0, 1)
        x = spec.transform(np.linspace(0, 0.999999, 101))
        assert (x >= 0).all() and (x <= 1).all()

    def test_invalid_support(self):
        with pytest.raises(InvalidInputError):
            DistributionSpec.uniform(1, 1)

    def test_invalid_sigma(self):
        with pytest.raises(InvalidInputError):
            DistributionSpec.truncated_gaussian(0, -1, 0, 1)

    def test_piecewise_normalizes(self):
        spec = DistributionSpec.piecewise([1, 3], 0, 1)
        assert abs(spec.density_integral() - 1) < 1e-10
        x = spec.transform(np.array([0.0, 0.249, 0.251, 0.999]))
        # first cell carries 1/4 of the mass on [0, 1/2)
        assert x[0] < 0.5 and x[1] < 0.5 and x[2] > 0.5

    def test_unnormalized_density_rejected(self):
        with pytest.raises(InvalidInputError):
            DistributionSpec("piecewise-density", 0, 1, weights=(2.0, 2.0))

    def test_truncated_gaussian_support(self):
        spec = DistributionSpec.truncated_gaussian(0.5, 0.2, 0, 1)
        x = spec.transform(np.linspace(0, 0.999999, 1001))
        assert (x >= 0).all() and (x <= 1).all()
        assert density_bound(spec) > 1.0  # peaked above the uniform level

    def test_truncated_gaussian_matches_scipy_formulas(self):
        from scipy.special import ndtr, ndtri

        mu, sigma, a, b = 0.5, 0.2, 0.0, 1.0
        spec = DistributionSpec.truncated_gaussian(mu, sigma, a, b)
        u = np.linspace(0, 0.999999, 257)
        lo, hi = ndtr((a - mu) / sigma), ndtr((b - mu) / sigma)
        ref = np.clip(mu + sigma * ndtri(lo + u * (hi - lo)), a, b)
        assert np.array_equal(spec.transform(u), ref)
        # the mode lies inside [a, b], so the density peaks at z = 0
        assert density_bound(spec) == float(
            1.0 / np.sqrt(2 * np.pi) / (sigma * (hi - lo)))


class TestSamplePotential:
    def test_support_constraint(self):
        s = sample_potential(DistributionSpec.uniform(), 42, 0, sites_1d(500))
        vals = np.array(list(s.values.values()))
        assert (vals >= 0).all() and (vals < 1).all()

    def test_determinism(self):
        a = sample_potential(DistributionSpec.uniform(), 9, 3, sites_1d(64))
        b = sample_potential(DistributionSpec.uniform(), 9, 3, sites_1d(64))
        assert a.values == b.values

    def test_order_independence(self):
        sites = sites_1d(32)
        fwd = sample_potential(DistributionSpec.uniform(), 5, 1, sites)
        rev = sample_potential(DistributionSpec.uniform(), 5, 1, sites[::-1])
        assert fwd.values == rev.values

    def test_domain_extension_consistency(self):
        small = sample_potential(DistributionSpec.uniform(), 5, 1, sites_1d(16))
        big = sample_potential(DistributionSpec.uniform(), 5, 1, sites_1d(64))
        for k, v in small.values.items():
            assert big.values[k] == v

    def test_empty_domain_ok(self):
        s = sample_potential(DistributionSpec.uniform(), 1, 0, np.empty((0, 1)))
        assert s.values == {} and len(s.domain) == 0

    def test_law_of_large_numbers(self):
        s = sample_potential(DistributionSpec.uniform(), 123, 0, sites_1d(10**6))
        mean = float(np.mean(list(s.values.values())))
        assert abs(mean - 0.5) < 0.002  # 3 sigma ~ 0.00087

    def test_out_of_domain(self):
        s = sample_potential(DistributionSpec.uniform(), 1, 0, sites_1d(4))
        with pytest.raises(OutOfDomainError):
            sample_value(s, Point1((99,)))

    def test_values_at_matches_stored(self):
        s = sample_potential(DistributionSpec.uniform(), 7, 2, sites_1d(20))
        arr = values_at(s, sites_1d(20))
        for row, v in zip(sites_1d(20), arr):
            assert s.values[(int(row[0]),)] == v


class TestIndependenceSurrogate:
    def test_two_site_correlation(self):
        # same two sites across 1e5 trials behave as independent streams
        n = 100_000
        spec = DistributionSpec.uniform()
        a = np.empty(n)
        b = np.empty(n)
        from anderson2p.kernels import uniform01

        sites = np.array([[0], [17]], dtype=np.int64)
        for t in range(n):
            u = uniform01(99, t, sites)
            a[t], b[t] = u[0], u[1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_shared_coordinate_covariance(self):
        # W((x,y)) and W((x,z)) share the V(x) summand: Cov = Var(V)
        n = 100_000
        spec = DistributionSpec.uniform()
        sites = np.arange(3, dtype=np.int64).reshape(-1, 1)
        w_xy = np.empty(n)
        w_xz = np.empty(n)
        for t in range(n):
            s = sample_potential(spec, 7, t, sites)
            v = [s.values[(i,)] for i in range(3)]
            w_xy[t] = v[0] + v[1]
            w_xz[t] = v[0] + v[2]
        cov = np.cov(w_xy, w_xz)[0, 1]
        var_v = 1.0 / 12.0
        # 3 sigma of the covariance estimator
        sd = np.sqrt((np.var(w_xy) * np.var(w_xz) + cov**2) / n)
        assert abs(cov - var_v) < 3 * sd


class TestFieldW:
    def test_diagonal_doubles(self):
        s = sample_potential(DistributionSpec.uniform(), 3, 0, sites_1d(4))
        x = Point2.of((2,), (2,))
        assert field_w(s, x) == 2 * s.values[(2,)]

    def test_exchange_symmetric(self):
        s = sample_potential(DistributionSpec.uniform(), 3, 0, sites_1d(4))
        x = Point2.of((1,), (3,))
        assert field_w(s, x) == field_w(s, x.sigma())

    def test_sum(self):
        spec = DistributionSpec.uniform()
        s = sample_potential(spec, 3, 0, sites_1d(4))
        x = Point2.of((0,), (1,))
        assert field_w(s, x) == s.values[(0,)] + s.values[(1,)]


class TestInteraction:
    def test_zero_separation(self):
        spec = InteractionSpec(1, (2.0, 1.0))
        assert interaction_u(spec, Point2.of((0,), (0,))) == 2.0

    def test_beyond_range(self):
        spec = InteractionSpec(1, (2.0, 1.0))
        assert interaction_u(spec, Point2.of((0,), (5,))) == 0.0

    @given(st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=30)
    def test_exchange_symmetric(self, a, b):
        spec = InteractionSpec.triangular(2, 1.5)
        x = Point2.of((a,), (b,))
        assert interaction_u(spec, x) == interaction_u(spec, x.sigma())

    def test_triangular_profile(self):
        spec = InteractionSpec.triangular(1, 1.0)
        assert spec.profile == (1.0, 0.5)
        assert interaction_bound(spec) == 1.0

    def test_invalid_range(self):
        with pytest.raises(InvalidInputError):
            InteractionSpec(0, (1.0,))
