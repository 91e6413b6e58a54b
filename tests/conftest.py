"""Shared corpus and warmed-database fixtures for the whole suite.

Several test files used to build their own random-walk corpus at module
import, so one pytest run paid for the same databases (and the same
warm-up of histograms, Q-gram pools, and reference columns) several
times over.  The canonical workloads now live here, session-scoped: a
corpus is built and warmed once per run, and every file that needs it
aliases the session fixture through a module-level ``workload`` fixture
so its test bodies are unchanged.

The RNG call sequences reproduce the original per-file builders exactly,
so the corpora (and therefore every derived expectation) are identical
to what the files constructed for themselves.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro import Trajectory, TrajectoryDatabase

# Tier-1 replays the same Hypothesis examples on every run, so a red
# build always names a reproducible input.  The randomised search runs
# in its own CI lane: ``pytest --hypothesis-profile=fuzz`` (the option
# loads the profile after this module, so it wins).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")

__all__ = ["random_walk_trajectories"]

_LEAKS_FAIL = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(config, items):
    """An unclosed file, socket or mmap is a leak: fail the test that left it.

    Scoped to this directory's tests, not set in ``pyproject.toml``, so
    other suites collected in the same run keep their own warning level.
    """
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for mark in _LEAKS_FAIL:
                item.add_marker(mark)


def random_walk_trajectories(
    rng, count, low, high, *, ndim=2, normalized=False
):
    """``count`` cumulative-sum random walks with lengths in [low, high)."""
    trajectories = []
    for _ in range(count):
        points = np.cumsum(
            rng.normal(size=(int(rng.integers(low, high)), ndim)), axis=0
        )
        trajectory = Trajectory(points)
        trajectories.append(
            trajectory.normalized() if normalized else trajectory
        )
    return trajectories


@pytest.fixture(scope="session")
def search_workload():
    """The seed-42 normalized corpus + 3 held-out queries (test_search)."""
    rng = np.random.default_rng(42)
    trajectories = random_walk_trajectories(rng, 50, 10, 40, normalized=True)
    database = TrajectoryDatabase(trajectories, epsilon=0.25)
    queries = [
        Trajectory(np.cumsum(rng.normal(size=(20, 2)), axis=0)).normalized()
        for _ in range(3)
    ]
    database.warm(q=1, histogram_bins=1.0)
    return database, queries


@pytest.fixture(scope="session")
def sharding_workload():
    """The seed-7 corpus + 4 in-database queries (test_sharding, chaos)."""
    rng = np.random.default_rng(7)
    trajectories = random_walk_trajectories(rng, 80, 15, 50)
    database = TrajectoryDatabase(trajectories, epsilon=0.4)
    queries = [trajectories[i] for i in (0, 19, 41, 66)]
    database.warm(q=1, histogram_bins=1.0)
    return database, queries


@pytest.fixture(scope="session")
def edr_batch_workload():
    """The seed-77 normalized corpus + 2 queries (test_edr_batch)."""
    rng = np.random.default_rng(77)
    trajectories = random_walk_trajectories(rng, 60, 8, 36, normalized=True)
    database = TrajectoryDatabase(trajectories, epsilon=0.25)
    queries = [
        Trajectory(np.cumsum(rng.normal(size=(18, 2)), axis=0)).normalized()
        for _ in range(2)
    ]
    database.warm(q=1, histogram_bins=1.0)
    return database, queries


@pytest.fixture(scope="session")
def service_database():
    """The seed-7 serving corpus (test_service_server, drain tests)."""
    rng = np.random.default_rng(7)
    trajectories = random_walk_trajectories(rng, 60, 10, 30)
    return TrajectoryDatabase(trajectories, epsilon=0.8)


@pytest.fixture(scope="session")
def bulk_workload():
    """Memoized builder of the test_bulk_bounds corpus variants.

    A factory (not a plain fixture) because callers vary ``count``;
    each distinct parameter set is built once per session.
    """
    cache = {}

    def build(seed=7, count=40, epsilon=0.3):
        key = (seed, count, epsilon)
        if key not in cache:
            rng = np.random.default_rng(seed)
            trajectories = random_walk_trajectories(rng, count, 2, 30)
            query = Trajectory(np.cumsum(rng.normal(size=(15, 2)), axis=0))
            cache[key] = (TrajectoryDatabase(trajectories, epsilon), query)
        return cache[key]

    return build
