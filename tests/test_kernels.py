"""Kernels against brute-force Python references."""

import numpy as np
import pytest

import anderson2p.kernels as kernels

from .oracles import (
    adjacency_loops,
    pairwise_dist_loops,
    shell_max_loops,
    splitmix_uniform01,
)


@pytest.mark.parametrize("seed,trial", [(0, 0), (123456789, 7), (2**60, 10**6)])
def test_uniform01_matches_integer_splitmix(seed, trial):
    rng = np.random.default_rng(0)
    coords = rng.integers(-(2**40), 2**40, size=(500, 3))
    assert (coords < 0).any()
    got = kernels.uniform01(seed, trial, coords)
    assert np.array_equal(got, splitmix_uniform01(seed, trial, coords))
    assert (got >= 0).all() and (got < 1).all()


def test_uniform01_pinned_values():
    # literal draws: any change to the site hash changes every sample
    assert kernels.uniform01(0, 0, np.array([[0], [1], [-1]])).tolist() == [
        0.01403302919427496, 0.28297252426495056, 0.4412276625239172]
    coords = np.array([[3, -7], [-(2**40), 2**40 - 1]])
    assert kernels.uniform01(123456789, 7, coords).tolist() == [
        0.41675392001941225, 0.5744167007942009]
    assert kernels.uniform01(2**60, 10**6, coords).tolist() == [
        0.007373021255412282, 0.31840254266924883]
    assert kernels.uniform01(0, 0, np.empty((0, 2), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("mode", ["sup", "l1"])
@pytest.mark.parametrize("ncols", [2, 4])
def test_pairwise_and_adjacency_match_loops(mode, ncols):
    rng = np.random.default_rng(ncols)
    a = rng.integers(-3, 4, size=(60, ncols))
    b = rng.integers(-3, 4, size=(25, ncols))
    assert np.array_equal(kernels.pairwise_dist(a, b, mode),
                          pairwise_dist_loops(a, b, mode))
    adj = kernels.adjacency_matrix(a, mode)
    assert adj.dtype == np.float64
    assert np.array_equal(adj, adjacency_loops(a, mode))


def test_shell_max_matches_loop():
    rng = np.random.default_rng(2)
    vals = rng.random(300)
    dists = rng.integers(0, 12, size=300)
    dists[dists == 5] = 4  # one empty shell reads 0
    assert np.array_equal(kernels.shell_max(vals, dists, 12),
                          shell_max_loops(vals, dists, 12))


def test_adjacency_degrees():
    pts = np.array([[i, j] for i in range(-2, 3) for j in range(-2, 3)])
    sup = kernels.adjacency_matrix(pts, "sup")
    l1 = kernels.adjacency_matrix(pts, "l1")
    assert sup.sum(axis=1).max() == 8  # 3**2 - 1 in two coordinates
    assert l1.sum(axis=1).max() == 4
    assert np.diag(sup).sum() == 0


def test_uniform01_site_keyed():
    a = kernels.uniform01(5, 3, np.array([[1, 2], [3, 4]]))
    b = kernels.uniform01(5, 3, np.array([[3, 4], [1, 2]]))
    assert a[0] == b[1] and a[1] == b[0]
    # coordinate order matters: (1,2) and (2,1) differ
    c = kernels.uniform01(5, 3, np.array([[2, 1]]))
    assert c[0] != a[0]
