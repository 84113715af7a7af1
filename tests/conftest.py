import os
from pathlib import Path

import numpy as np
import pytest

import anderson2p
from anderson2p import blas
from anderson2p.disorder import (
    DistributionSpec,
    InteractionSpec,
    domain_for_boxes,
    sample_potential,
)
from anderson2p.geometry import Box2, Point2
from anderson2p.msa import desk_schedule


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """In-process tests run on the BLAS thread count that every CLI run
    uses, so library results match the CLI's bits."""
    with blas.one_thread():
        yield


@pytest.fixture(scope="session")
def uniform01_dist():
    return DistributionSpec.uniform()


@pytest.fixture(scope="session")
def interaction_r1():
    return InteractionSpec.triangular(r0=1, u0=1.0)


@pytest.fixture(scope="session")
def desk():
    return desk_schedule()


def random_point2(rng, d, half_width):
    c = rng.integers(-half_width, half_width + 1, size=2 * d)
    return Point2.of(c[:d], c[d:])


def box_with_sample(center, radius, seed=0, trial=0, dist=None):
    """A box plus a disorder sample covering it."""
    box = Box2(center, radius)
    dist = dist or DistributionSpec.uniform()
    sample = sample_potential(dist, seed, trial, domain_for_boxes([box]))
    return box, sample


def certify_nothing(h, E, w):
    """A stand-in for ``resolvent.window_clear`` that certifies no box, so
    every window question goes to ``eigvalsh``."""
    return np.zeros(len(h), dtype=bool)


def duplicated_eigenpair(eigh):
    """``eigh`` with the first eigenpair of every matrix copied over the
    second: every residual stays as small as eigh's, but the eigenvectors
    are no longer orthonormal."""

    def duplicated(a):
        ev, q = eigh(a)
        ev[..., 1] = ev[..., 0]
        q[..., 1] = q[..., 0]
        return ev, q

    return duplicated


def cli_env(**overrides):
    """A copy of ``os.environ`` for a child process that runs the CLI.

    The directory holding the ``anderson2p`` that this session imported goes
    first on ``PYTHONPATH`` (existing entries are kept), so the child runs the
    same source tree from any working directory, installed or not.  Each
    keyword sets that variable; a value of ``None`` removes it.
    """
    env = dict(os.environ)
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    src = str(Path(anderson2p.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
    return env
