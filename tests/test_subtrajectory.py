"""Subtrajectory search: oracle byte-equality, soundness, metamorphic laws.

The acceptance bar for :mod:`repro.core.subtrajectory` is the same
no-false-dismissal contract every whole-trajectory engine carries, now
over *windows*: ``subknn_search`` answers ``(index, start, end,
distance)`` must equal the naive enumerate-every-window oracle byte for
byte, under every pruner spec, and the window bounds the pruners price
must never undercut reality (no surviving window pruned).
"""

import numpy as np
import pytest

from repro import (
    Trajectory,
    TrajectoryDatabase,
    edr,
    subknn_search,
)
from repro.core.subtrajectory import (
    DEFAULT_WINDOW_ALPHA,
    WINDOW_KERNEL,
    WindowMatch,
    edr_windows,
    edr_windows_many,
    resolve_window_range,
    window_counts,
)
from repro.core.batch import warm_pruners
from repro.core.search import _ResultList
from repro.service.pruning import build_pruners

from .conftest import random_walk_trajectories
from .oracles import brute_subknn, window_answers

pytestmark = pytest.mark.subtrajectory

SPECS = ("histogram,qgram", "qgram", "histogram-1d,qgram", "qgram,nti", "")


@pytest.fixture(scope="module")
def workload():
    """A small mixed-length corpus the brute-force oracle can afford."""
    rng = np.random.default_rng(1234)
    trajectories = random_walk_trajectories(rng, 30, 5, 30)
    trajectories.append(Trajectory(np.empty((0, 2))))  # the empty member
    database = TrajectoryDatabase(trajectories, epsilon=0.4)
    database.warm(q=1, histogram_bins=1.0)
    queries = [
        database.trajectories[0],
        database.trajectories[17],
        Trajectory(np.cumsum(rng.normal(size=(18, 2)), axis=0)),
        Trajectory(np.cumsum(rng.normal(size=(4, 2)), axis=0)),
    ]
    return database, queries


def _chain(database, spec):
    pruners = build_pruners(database, spec)
    warm_pruners(pruners, database.trajectories[0])
    return pruners


# ----------------------------------------------------------------------
# Window band and counting
# ----------------------------------------------------------------------
class TestWindowRange:
    def test_default_band_is_plus_minus_alpha(self):
        assert resolve_window_range(20) == (15, 25)
        assert resolve_window_range(20, alpha=0.5) == (10, 30)

    def test_zero_alpha_pins_the_query_length(self):
        assert resolve_window_range(12, alpha=0.0) == (12, 12)

    def test_overrides_take_both_edges(self):
        assert resolve_window_range(20, min_window=3, max_window=40) == (3, 40)

    def test_band_floors_at_one_element(self):
        lo, hi = resolve_window_range(1)
        assert lo == 1 and hi >= 1

    def test_negative_alpha_rejected(self):
        for alpha in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                resolve_window_range(10, alpha=alpha)

    def test_inverted_overrides_rejected(self):
        with pytest.raises(ValueError):
            resolve_window_range(10, min_window=8, max_window=4)

    def test_window_counts_match_enumeration(self):
        lo, hi = 4, 9
        for n in range(0, 20):
            expected = (
                1
                if n == 0
                else sum(
                    1
                    for start in range(n)
                    for end in range(start + 1, n + 1)
                    if min(lo, n) <= end - start <= min(hi, n)
                )
            )
            assert window_counts([n], lo, hi)[0] == expected, n


class TestWindowResultList:
    """The canonical result list holding best windows as its items."""

    @staticmethod
    def _offer(result, index, start, end, distance):
        result.offer(index, distance, WindowMatch(index, start, end, distance))

    def test_keeps_k_smallest_on_distance_then_index(self):
        result = _ResultList(2)
        self._offer(result, 3, 0, 5, 2.0)
        self._offer(result, 1, 2, 7, 2.0)
        self._offer(result, 9, 0, 4, 1.0)
        assert window_answers(result.neighbors()) == [
            (9, 0, 4, 1.0),
            (1, 2, 7, 2.0),
        ]

    def test_offers_are_commutative(self):
        offers = [(4, 0, 3, 2.5), (2, 1, 6, 1.5), (7, 2, 8, 2.5), (0, 0, 9, 3.5)]
        forward = _ResultList(3)
        backward = _ResultList(3)
        for offer in offers:
            self._offer(forward, *offer)
        for offer in reversed(offers):
            self._offer(backward, *offer)
        assert forward.neighbors() == backward.neighbors()

    def test_infinite_distances_ignored(self):
        result = _ResultList(1)
        self._offer(result, 0, 0, 1, float("inf"))
        assert result.neighbors() == []


# ----------------------------------------------------------------------
# The DP kernel against plain EDR
# ----------------------------------------------------------------------
class TestWindowedKernel:
    def test_every_window_distance_matches_plain_edr(self):
        rng = np.random.default_rng(5)
        query = Trajectory(np.cumsum(rng.normal(size=(10, 2)), axis=0))
        candidate = Trajectory(np.cumsum(rng.normal(size=(16, 2)), axis=0))
        lo, hi = 7, 13
        distance, start, end = edr_windows(query, candidate, 0.4, lo, hi)
        best = min(
            (
                float(edr(query, Trajectory(candidate.points[s:e]), 0.4)),
                s,
                e,
            )
            for s in range(len(candidate))
            for e in range(s + 1, len(candidate) + 1)
            if lo <= e - s <= hi
        )
        assert (distance, start, end) == best

    def test_batched_pass_equals_single_candidate_calls(self):
        rng = np.random.default_rng(6)
        query = np.cumsum(rng.normal(size=(9, 2)), axis=0)
        candidates = [
            np.cumsum(rng.normal(size=(n, 2)), axis=0)
            for n in (3, 9, 14, 20, 1)
        ]
        distances, starts, ends, evaluated, abandoned = edr_windows_many(
            query, candidates, 0.4, 6, 12
        )
        for position, candidate in enumerate(candidates):
            single = edr_windows(
                Trajectory(query), Trajectory(candidate), 0.4, 6, 12
            )
            assert (
                distances[position],
                starts[position],
                ends[position],
            ) == single
        assert int(abandoned.sum()) == 0
        assert int(evaluated.sum()) == int(
            window_counts([len(c) for c in candidates], 6, 12).sum()
        )


# ----------------------------------------------------------------------
# Oracle byte-equality (the acceptance criterion)
# ----------------------------------------------------------------------
class TestOracleByteEquality:
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_brute_force_for_every_spec(self, workload, spec):
        database, queries = workload
        pruners = _chain(database, spec)
        for query in queries:
            matches, stats = subknn_search(database, query, 5, pruners)
            assert window_answers(matches) == brute_subknn(database, query, 5)
            assert (
                stats.windows_evaluated
                + stats.windows_pruned
                + stats.windows_abandoned
                == stats.windows_total
            )
            assert stats.kernel == WINDOW_KERNEL

    def test_early_abandon_keeps_answers_and_total(self, workload):
        database, queries = workload
        pruners = _chain(database, "histogram,qgram")
        for query in queries:
            plain, plain_stats = subknn_search(database, query, 5, pruners)
            fast, fast_stats = subknn_search(
                database, query, 5, pruners, early_abandon=True
            )
            assert window_answers(plain) == window_answers(fast)
            assert plain_stats.windows_total == fast_stats.windows_total

    def test_alpha_and_overrides_reach_the_oracle(self, workload):
        database, queries = workload
        query = queries[2]
        for kwargs in (
            {"alpha": 0.0},
            {"alpha": 0.6},
            {"alpha": 1e19},
            {"min_window": 2, "max_window": 8},
        ):
            matches, _ = subknn_search(database, query, 4, (), **kwargs)
            assert window_answers(matches) == brute_subknn(
                database, query, 4, **kwargs
            )

    def test_refine_batch_size_never_changes_answers(self, workload):
        database, queries = workload
        pruners = _chain(database, "qgram")
        want = window_answers(
            subknn_search(database, queries[0], 5, pruners)[0]
        )
        for batch_size in (1, 3, 1000):
            got, _ = subknn_search(
                database, queries[0], 5, pruners, refine_batch_size=batch_size
            )
            assert window_answers(got) == want


# ----------------------------------------------------------------------
# Pruner soundness over windows
# ----------------------------------------------------------------------
class TestWindowBoundSoundness:
    @pytest.mark.parametrize("spec", [s for s in SPECS if s])
    def test_window_bound_never_exceeds_best_window(self, workload, spec):
        """The soundness proof behind whole-trajectory pruning of windows.

        A trajectory is pruned when its priced window bound exceeds the
        current k-th best window distance; that is a no-false-dismissal
        step iff the bound lower-bounds the trajectory's *best window*
        (not just its whole-trajectory EDR).
        """
        database, queries = workload
        pruners = _chain(database, spec)
        for query in queries:
            oracle = {
                index: distance
                for index, _, _, distance in brute_subknn(
                    database, query, len(database)
                )
            }
            for pruner in pruners:
                handle = pruner.for_query(query)
                bounds = np.asarray(handle.bulk_window_lower_bounds())
                for index in range(len(database)):
                    assert bounds[index] <= oracle[index] + 1e-9, (
                        spec,
                        index,
                    )

    def test_no_surviving_window_pruned(self, workload):
        """Pruned trajectories are exactly those absent from the answer."""
        database, queries = workload
        pruners = _chain(database, "histogram,qgram")
        for query in queries:
            matches, stats = subknn_search(database, query, 3, pruners)
            assert window_answers(matches) == brute_subknn(database, query, 3)
            if stats.windows_pruned:
                assert stats.true_distance_computations < len(database)


# ----------------------------------------------------------------------
# Metamorphic laws
# ----------------------------------------------------------------------
class TestMetamorphicLaws:
    def test_whole_trajectory_edr_upper_bounds_best_window(self, workload):
        """When the whole trajectory is itself a feasible window."""
        database, queries = workload
        for query in queries:
            lo, hi = resolve_window_range(len(query))
            matches, _ = subknn_search(database, query, len(database), ())
            for match in matches:
                candidate = database.trajectories[match.index]
                if len(candidate) <= hi:
                    whole = float(edr(query, candidate, database.epsilon))
                    assert match.distance <= whole + 1e-9

    def test_junk_padding_leaves_best_window_unchanged(self):
        rng = np.random.default_rng(77)
        corpus = random_walk_trajectories(rng, 12, 8, 24)
        query = Trajectory(np.cumsum(rng.normal(size=(12, 2)), axis=0))
        database = TrajectoryDatabase(corpus, epsilon=0.4)
        target = 4
        before, _ = subknn_search(database, query, len(corpus), ())
        best_before = next(m for m in before if m.index == target)

        junk = corpus[target].points[-1] + 1e6 + np.cumsum(
            rng.normal(size=(10, 2)), axis=0
        )
        padded = list(corpus)
        padded[target] = Trajectory(
            np.vstack([corpus[target].points, junk])
        )
        database_after = TrajectoryDatabase(padded, epsilon=0.4)
        after, _ = subknn_search(database_after, query, len(corpus), ())
        best_after = next(m for m in after if m.index == target)
        assert (
            best_after.start,
            best_after.end,
            best_after.distance,
        ) == (best_before.start, best_before.end, best_before.distance)

    def test_self_query_finds_a_zero_distance_window(self, workload):
        database, _ = workload
        for index in (0, 9, 23):
            query = database.trajectories[index]
            matches, _ = subknn_search(database, query, 1, ())
            (top,) = matches
            assert top.distance == 0.0
            assert top.index == index
            assert (top.start, top.end) == (0, len(query))

    def test_contained_window_is_recovered_exactly(self):
        """Planting a query inside a long decoy recovers its offsets."""
        rng = np.random.default_rng(11)
        query_points = np.cumsum(rng.normal(size=(10, 2)), axis=0)
        prefix = query_points[0] + 500.0 + np.cumsum(
            rng.normal(size=(6, 2)), axis=0
        )
        suffix = query_points[-1] - 500.0 + np.cumsum(
            rng.normal(size=(7, 2)), axis=0
        )
        host = Trajectory(np.vstack([prefix, query_points, suffix]))
        decoys = random_walk_trajectories(rng, 5, 4, 12)
        database = TrajectoryDatabase([host] + decoys, epsilon=0.25)
        matches, _ = subknn_search(
            database, Trajectory(query_points), 1, ()
        )
        (top,) = matches
        assert top.index == 0
        assert top.distance == 0.0
        assert (top.start, top.end) == (len(prefix), len(prefix) + 10)


# ----------------------------------------------------------------------
# API edges
# ----------------------------------------------------------------------
class TestApiEdges:
    def test_invalid_k_rejected(self, workload):
        database, queries = workload
        with pytest.raises(ValueError):
            subknn_search(database, queries[0], 0, ())

    def test_empty_query_rejected(self, workload):
        database, _ = workload
        with pytest.raises(ValueError):
            subknn_search(database, Trajectory(np.empty((0, 2))), 1, ())

    def test_matches_are_value_objects(self, workload):
        database, queries = workload
        matches, _ = subknn_search(database, queries[0], 3, ())
        for match in matches:
            assert match == WindowMatch(*match.as_tuple())
            start, end = match.start, match.end
            assert 0 <= start <= end
