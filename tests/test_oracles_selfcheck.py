"""Sanity checks of the brute-force oracles themselves (closed forms)."""

import numpy as np
import pytest

from anderson2p.msa import asymptotic_schedule, schedule, validate_parameters

from .oracles import (
    check_passed,
    dense_inverse_green,
    exhaustive_separated_subset,
    gauss_jordan_inverse,
    grid_resonant_pair,
    path_graph_eigenvalues,
)


class TestGaussJordan:
    def test_scalar(self):
        assert dense_inverse_green(np.array([[3.0]]), 1.0, 0, 0) == pytest.approx(0.5)

    def test_two_by_two_adjugate(self):
        a, b = 2.0, -1.0
        m = np.array([[a, 1.0], [1.0, b]])
        e = 0.25
        det = (a - e) * (b - e) - 1.0
        assert dense_inverse_green(m, e, 0, 0) == pytest.approx((b - e) / det)
        assert dense_inverse_green(m, e, 0, 1) == pytest.approx(-1.0 / det)

    def test_inverse_of_product(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(12, 12))
        m = m + m.T + 12 * np.eye(12)
        inv = gauss_jordan_inverse(m)
        assert np.abs(m @ inv - np.eye(12)).max() < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gauss_jordan_inverse(np.zeros((2, 2)))


class TestSubsetOracle:
    def test_trivial_sizes(self):
        assert exhaustive_separated_subset([], 8) == 0
        assert exhaustive_separated_subset([(0, 0)], 8) == 1

    def test_refuses_large(self):
        with pytest.raises(ValueError):
            exhaustive_separated_subset([(i, 0) for i in range(21)], 1)

    def test_exchange_aware(self):
        # second center is the exchange image of the first
        assert exhaustive_separated_subset([(0, 50), (50, 0)], 4) == 1


class TestGridOracle:
    def test_identical(self):
        ev = np.array([0.0, 1.0])
        assert grid_resonant_pair(ev, ev, None, 2, 0.5)

    def test_far(self):
        assert not grid_resonant_pair(
            np.array([0.0]), np.array([5.0]), None, 2, 0.5)


def test_path_eigenvalues():
    np.testing.assert_allclose(
        np.sort(path_graph_eigenvalues(3)),
        [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_mass_product_failure_case():
    # gamma=40 with L0 large enough to build but too small for the
    # infinite-product bound
    s = schedule(250, 1.5, 40.0, 1.0, 1)
    rep = validate_parameters(s)
    assert not check_passed(rep, "mass_product_half")
    assert not rep.asymptotic_regime
    assert check_passed(validate_parameters(asymptotic_schedule()), "mass_product_half")
