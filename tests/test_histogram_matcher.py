"""The query-prepared histogram matcher against the Dinic oracle.

:class:`repro.core.histogram.HistogramMatcher` computes HD's ``M`` (the
maximum one-to-one pairing along approximately-matching bins) with a
greedy seed flow plus BFS augmenting paths, stopping early at the
per-side caps.  It must return the same integer as a general max-flow
solver on every input, so every engine's answers *and* counters stay
what they were under Dinic.  This file checks both levels: the integer
on random and pinned histograms, and whole-engine runs with the oracle
patched in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    HistogramPruner,
    QgramMergeJoinPruner,
    knn_search,
    knn_sorted_search,
    range_search,
)
from repro.core.histogram import (
    HistogramMatcher,
    histogram_distance,
    histogram_distance_quick,
    histogram_match_capacity,
    histogram_window_bound,
)
from repro.core.lcss_search import LcssHistogramBound, knn_lcss_search
from repro.storage import TieredDatabase, build_store

from .oracles import answers, dinic_max_cancellation


def histograms(ndim):
    coordinate = st.integers(-4, 4)
    return st.dictionaries(
        st.tuples(*[coordinate] * ndim), st.integers(1, 4), max_size=12
    )


def pair_of(ndim):
    return st.tuples(histograms(ndim), histograms(ndim))


class TestMatchesDinic:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(pair_of(1), pair_of(2), pair_of(3)))
    def test_matchable_equals_oracle(self, pair):
        first, second = pair
        expected = dinic_max_cancellation(first, second)
        assert HistogramMatcher(first).matchable(second) == expected
        assert HistogramMatcher(second).matchable(first) == expected
        assert histogram_match_capacity(first, second) == expected
        total = max(sum(first.values()), sum(second.values()))
        assert histogram_distance(first, second) == total - expected

    @settings(max_examples=200, deadline=None)
    @given(pair_of(1))
    def test_augmenting_paths_on_a_line(self, pair):
        # 1-D bins delegate to the line greedy; lifting them onto a line
        # of 2-D bins runs the augmenting-path solver on the same graph.
        first, second = pair
        lifted = [{(k[0], 0): v for k, v in h.items()} for h in pair]
        assert HistogramMatcher(lifted[0]).matchable(
            lifted[1]
        ) == dinic_max_cancellation(first, second)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(pair_of(1), pair_of(2), pair_of(3)))
    def test_caps_bound_the_flow(self, pair):
        first, second = pair
        matcher = HistogramMatcher(first)
        total = max(sum(first.values()), sum(second.values()))
        quick = matcher.quick_distance(second)
        assert quick == histogram_distance_quick(first, second)
        assert quick <= matcher.distance(second)
        window = matcher.window_bound(second)
        assert window == histogram_window_bound(first, second)
        assert window <= sum(first.values()) - matcher.matchable(second)
        assert quick <= total

    def test_one_matcher_serves_many_candidates(self):
        rng = np.random.default_rng(3)
        query = {
            tuple(key): int(count)
            for key, count in zip(
                rng.integers(-3, 4, size=(10, 2)).tolist(),
                rng.integers(1, 4, size=10),
            )
        }
        matcher = HistogramMatcher(query)
        for _ in range(50):
            candidate = {
                tuple(key): int(count)
                for key, count in zip(
                    rng.integers(-3, 4, size=(8, 2)).tolist(),
                    rng.integers(1, 4, size=8),
                )
            }
            assert matcher.matchable(candidate) == dinic_max_cancellation(
                query, candidate
            )


class TestPinnedCases:
    def test_greedy_trap_needs_an_augmenting_path(self):
        # The first candidate unit takes query bin (1,0); the second can
        # only reach (1,0), so the first must be re-routed to (2,0).
        query = {(1, 0): 1, (2, 0): 1}
        candidate = {(1, 0): 1, (0, 0): 1}
        assert dinic_max_cancellation(query, candidate) == 2
        assert HistogramMatcher(query).matchable(candidate) == 2
        assert HistogramMatcher(candidate).matchable(query) == 2

    def test_figure_5_chain_counterexample(self):
        # R = [0.9, 1.9], S = [1.1, 2.1] at eps = bin = 1: EDR is 0 and the
        # flow form pairs both elements (net-first CompHisDist says 1).
        first, second = {(0,): 1, (1,): 1}, {(1,): 1, (2,): 1}
        assert HistogramMatcher(first).matchable(second) == 2
        assert histogram_distance(first, second) == 0
        lifted = HistogramMatcher({(0, 0): 1, (1, 0): 1})
        assert lifted.matchable({(1, 0): 1, (2, 0): 1}) == 2

    @pytest.mark.parametrize("other", [{}, {(0, 0): 2}, {(5, 5): 1, (6, 5): 3}])
    def test_empty_histograms(self, other):
        total = sum(other.values())
        assert HistogramMatcher({}).matchable(other) == 0
        assert HistogramMatcher(other).matchable({}) == 0
        assert HistogramMatcher({}).distance(other) == total
        assert HistogramMatcher(other).quick_distance({}) == total
        assert HistogramMatcher({}).window_bound(other) == 0

    def test_disjoint_histograms(self):
        first = {(0, 0): 3, (1, 1): 2}
        second = {(5, 5): 4, (-4, 0): 1}
        matcher = HistogramMatcher(first)
        assert matcher.matchable(second) == 0
        assert matcher.distance(second) == 5
        assert matcher.quick_distance(second) == 5
        assert matcher.window_bound(second) == 5


class TestEnginesUnderTheOracle:
    """Every engine answers and counts identically with Dinic patched in."""

    @pytest.fixture
    def runs(self, sharding_workload, tmp_path):
        database, queries = sharding_workload
        directory = tmp_path / "store"
        build_store(database.trajectories, directory, database.epsilon)
        tiered = TieredDatabase.open(directory)

        def run_all():
            results = []
            for query in queries:
                chain = [HistogramPruner(database), QgramMergeJoinPruner(database)]
                per_axis = [HistogramPruner(database, per_axis=True)]
                tiered_chain = [
                    HistogramPruner(tiered.database),
                    QgramMergeJoinPruner(tiered.database),
                ]
                engine_runs = [
                    knn_search(database, query, 5, chain),
                    knn_search(database, query, 3, per_axis),
                    knn_sorted_search(database, query, 5, chain[0], chain[1:]),
                    range_search(database, query, 12.0, chain),
                    tiered.knn_sorted_search(
                        query, 5, tiered_chain[0], tiered_chain[1:]
                    ),
                ]
                for neighbors, stats in engine_runs:
                    results.append(
                        (
                            answers(neighbors),
                            sorted(stats.pruned_by.items()),
                            stats.true_distance_computations,
                        )
                    )
                matches, stats = knn_lcss_search(
                    database, query, 5, [LcssHistogramBound(database)]
                )
                results.append(
                    (
                        [(m.index, m.score) for m in matches],
                        sorted(stats.pruned_by.items()),
                        stats.true_distance_computations,
                    )
                )
            return results

        yield run_all
        tiered.close()

    def test_identical_answers_and_counters(self, runs, monkeypatch):
        calls = []
        matchable = HistogramMatcher.matchable

        def counted(self, candidate):
            calls.append(1)
            return matchable(self, candidate)

        monkeypatch.setattr(HistogramMatcher, "matchable", counted)
        with_matcher = runs()
        assert calls, "the exact stage was never consulted"

        monkeypatch.setattr(
            HistogramMatcher,
            "matchable",
            lambda self, candidate: dinic_max_cancellation(self._query, candidate),
        )
        with_oracle = runs()
        assert with_matcher == with_oracle
