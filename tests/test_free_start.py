"""The free-start window filter: kernel exactness, soundness, decisions.

The bit-parallel kernel's free-start mode must equal the plain
min-over-start DP of :func:`oracles.free_start_edr` bit for bit, and
its value must lower-bound the best banded window (soundness) and equal
it wherever it sits below the band's length-difference limit
(exactness).  The engine that uses it as a filter stage must decide
exactly like the eager frozen-round loop of :func:`oracles.eager_subknn`
— answers, ``pruned_by``, true-distance count and window counters — and
must price at most half the candidates the same loop does without the
stage on a route-clustered corpus.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Trajectory, TrajectoryDatabase, subknn_search
from repro.core.batch import warm_pruners
from repro.core.edr_bitparallel import edr_many_bitparallel
from repro.core.subtrajectory import FREE_START_STAGE, resolve_window_range
from repro.service.pruning import build_pruners

from .conftest import random_walk_trajectories
from .oracles import brute_subknn, eager_subknn, free_start_edr, window_answers

pytestmark = pytest.mark.subtrajectory

EPSILON = 0.5


def lattice_points(ndim, min_size, max_size):
    """Points on the ε-lattice: coordinate differences are exact
    multiples of ε, so many pairs sit on the match boundary."""
    point = st.tuples(*[st.integers(-3, 3) for _ in range(ndim)])
    return st.lists(point, min_size=min_size, max_size=max_size).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, ndim) * EPSILON
    )


def walk(rng, length, ndim=2):
    return np.cumsum(rng.normal(size=(length, ndim)), axis=0)


class TestKernelAgainstTheScalarReference:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lattice_batches(self, ndim, data):
        query = data.draw(lattice_points(ndim, 1, 12))
        candidates = [
            data.draw(lattice_points(ndim, 0, max_size))
            for max_size in (0, 8, 40, 140)
        ]
        got = edr_many_bitparallel(query, candidates, EPSILON, free_start=True)
        assert list(got) == [
            free_start_edr(query, candidate, EPSILON) for candidate in candidates
        ]

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_random_walks_across_word_boundaries(self, ndim):
        rng = np.random.default_rng(40 + ndim)
        for m in (1, 7, 24):
            query = walk(rng, m, ndim)
            candidates = [walk(rng, n, ndim) for n in (0, 3, 63, 64, 65, 129, 200)]
            got = edr_many_bitparallel(query, candidates, 0.8, free_start=True)
            assert list(got) == [
                free_start_edr(query, candidate, 0.8) for candidate in candidates
            ]

    def test_edge_values(self):
        rng = np.random.default_rng(7)
        query = walk(rng, 9)
        # An empty candidate offers only the empty window; a candidate
        # holding the query scores zero; the empty query matches anything.
        got = edr_many_bitparallel(
            query, [np.empty((0, 2)), np.vstack([walk(rng, 70), query])], 0.5,
            free_start=True,
        )
        assert list(got) == [9.0, 0.0]
        assert list(
            edr_many_bitparallel(np.empty((0, 2)), [query], 0.5, free_start=True)
        ) == [0.0]

    def test_bounds_abandon_exactly_past_the_value(self):
        rng = np.random.default_rng(8)
        query = walk(rng, 12)
        candidates = [walk(rng, n) for n in (5, 30, 90, 150)]
        exact = edr_many_bitparallel(query, candidates, 0.9, free_start=True)
        for bound in (0.0, 3.0, 6.0, 11.0):
            got = edr_many_bitparallel(
                query, candidates, 0.9, bounds=bound, free_start=True
            )
            assert list(got) == [
                value if value <= bound else np.inf for value in exact
            ]

    def test_band_is_rejected(self):
        with pytest.raises(ValueError):
            edr_many_bitparallel(
                np.zeros((2, 2)), [np.zeros((3, 2))], 0.5, band=1, free_start=True
            )


@pytest.fixture(scope="module")
def small_corpus():
    rng = np.random.default_rng(77)
    trajectories = random_walk_trajectories(rng, 14, 4, 26)
    trajectories.append(Trajectory(np.empty((0, 2))))
    database = TrajectoryDatabase(trajectories, epsilon=0.6)
    database.warm(q=1, histogram_bins=1.0)
    source = database.trajectories[2].points
    queries = [
        Trajectory(source[3:11]),  # a stored stretch: zero-distance windows
        Trajectory(walk(rng, 6)),
        Trajectory(walk(rng, 11)),
    ]
    return database, queries


class TestBoundAgainstTheBestBandedWindow:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1e6])
    def test_sound_and_exact_below_the_length_limit(self, small_corpus, alpha):
        database, queries = small_corpus
        exact_cases = 0
        for query in queries:
            m = len(query)
            lo, hi = resolve_window_range(m, alpha)
            limit = min(m - lo + 1, hi + 1 - m)
            best = {
                index: distance
                for index, _, _, distance in brute_subknn(
                    database, query, len(database), alpha=alpha
                )
            }
            floors = edr_many_bitparallel(
                query, list(database.trajectories), database.epsilon,
                free_start=True,
            )
            for index, floor in enumerate(floors):
                assert floor <= best[index], (alpha, index)
                if floor < limit:
                    assert floor == best[index], (alpha, index)
                    exact_cases += 1
        assert exact_cases > 0


class TestEngineDecidesLikeTheEagerLoop:
    @pytest.mark.parametrize("spec", ["histogram,qgram", "qgram", ""])
    @pytest.mark.parametrize("early_abandon", [False, True])
    @pytest.mark.parametrize("round_size", [4, 64])
    def test_answers_and_counters(self, small_corpus, spec, early_abandon, round_size):
        database, queries = small_corpus
        pruners = build_pruners(database, spec)
        warm_pruners(pruners, database.trajectories[0])
        for k in (1, 4):
            for query in queries:
                got, stats = subknn_search(
                    database, query, k, pruners, early_abandon=early_abandon,
                    refine_batch_size=round_size,
                )
                answers, pruned_by, computed, windows = eager_subknn(
                    database, query, k, pruners, early_abandon=early_abandon,
                    round_size=round_size,
                )
                assert answers == brute_subknn(database, query, k)
                assert window_answers(got) == answers
                assert dict(stats.pruned_by) == pruned_by
                assert stats.true_distance_computations == computed
                assert (
                    stats.windows_evaluated,
                    stats.windows_pruned,
                    stats.windows_abandoned,
                ) == windows
                assert sum(windows) == stats.windows_total


def _route_corpus():
    """Six routes of six jittered members each, plus 24-point queries
    cut from fresh members: the moving-object regime."""
    rng = np.random.default_rng(31)
    routes = [walk(rng, int(length)) for length in (30, 36, 42, 48, 54, 60)]
    trajectories = [
        Trajectory(route + rng.normal(scale=0.1, size=route.shape))
        for route in routes
        for _ in range(6)
    ]
    database = TrajectoryDatabase(trajectories, epsilon=0.5)
    database.warm(q=1, histogram_bins=1.0)
    queries = []
    for route in routes[::2]:
        start = int(rng.integers(0, len(route) - 24))
        segment = route[start : start + 24]
        queries.append(
            Trajectory(segment + rng.normal(scale=0.1, size=segment.shape))
        )
    return database, queries


def test_the_filter_halves_the_priced_candidates():
    """The stage retires at least half the candidates the frozen-round
    loop would otherwise price, on a route-clustered corpus."""
    database, queries = _route_corpus()
    pruners = build_pruners(database, "histogram,qgram")
    warm_pruners(pruners, database.trajectories[0])
    filtered = unfiltered = 0
    for query in queries:
        got, stats = subknn_search(database, query, 5, pruners)
        answers, _, computed, _ = eager_subknn(
            database, query, 5, pruners, free_start=False
        )
        assert window_answers(got) == answers
        assert stats.pruned_by.get(FREE_START_STAGE, 0) > 0
        filtered += stats.true_distance_computations
        unfiltered += computed
    assert filtered * 2 <= unfiltered, (filtered, unfiltered)
