"""The serial engines decide exactly like the eager Figure 6 loop.

``knn_search`` visits in bound order by default and in index order
(the paper's HSE) with ``order="index"``; each order is held to the
oracle's matching walk.

The engines fill a later pruner's bounds only for the rows that can
still reach it, and skip the exact histogram stage where its greedy
matching ceiling shows it cannot prune.  Neither may change a decision, so every
engine must reproduce :func:`oracles.eager_knn` / :func:`oracles.eager_range`
(every pruner's scalar ``lower_bound`` asked in chain order): the same
answers, the same ``pruned_by`` and the same true-distance count.  The
tiered store's sorted k-NN and range queries are held to the same
oracle, through its summary blocks and without them.
"""

import time

import numpy as np
import pytest

from repro import MutableDatabase, Trajectory, TrajectoryDatabase
from repro.core.histogram import HistogramMatcher
from repro.core.rangequery import range_search
from repro.core.search import HistogramPruner, knn_scan, knn_search, knn_sorted_search
from repro.service.pruning import build_pruners
from repro.storage.tiered import TieredDatabase, build_store

from .oracles import answers, eager_knn, eager_range

SPECS = ["histogram,qgram", "qgram,histogram", "histogram-1d,qgram", "histogram,qgram,nti"]


@pytest.fixture(scope="module")
def routes_workload():
    """Jittered copies of a few random-walk routes: the first two stages
    of every spec prune something here, so the comparisons are not
    vacuous (the near-triangle stage only records distances)."""
    rng = np.random.default_rng(11)
    routes = [
        np.cumsum(rng.normal(size=(int(rng.integers(15, 40)), 2)), axis=0)
        for _ in range(15)
    ]

    def member(route):
        return Trajectory(route + rng.normal(scale=0.3, size=route.shape))

    trajectories = [member(routes[i % len(routes)]) for i in range(150)]
    database = TrajectoryDatabase(trajectories, epsilon=0.5)
    database.warm()
    queries = [member(routes[i]) for i in (0, 3, 5)]
    return database, queries


@pytest.fixture(scope="module")
def tiered_stores(routes_workload, tmp_path_factory):
    """The same 150 trajectories as tiered stores: ``(store, block_skip)``
    at summary blocks of 1 and 7 rows, and the 7-row store unblocked."""
    database, _ = routes_workload
    stores = []
    for summary_block in (1, 7):
        directory = tmp_path_factory.mktemp(f"chain-store-{summary_block}")
        build_store(
            database.trajectories,
            directory,
            database.epsilon,
            parts=("histogram", "histogram-1d", "qgram", "nti"),
            summary_block=summary_block,
        )
        stores.append(TieredDatabase.open(directory))
    yield [(stores[0], True), (stores[1], True), (stores[1], False)]
    for store in stores:
        store.close()


def _engine_row(neighbors, stats):
    return answers(neighbors), stats.pruned_by, stats.true_distance_computations


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("early_abandon", [False, True])
@pytest.mark.parametrize("edr_kernel", [None, "batched"])
def test_engines_decide_like_the_eager_loop(
    routes_workload, tiered_stores, spec, early_abandon, edr_kernel
):
    database, queries = routes_workload
    pruners = build_pruners(database, spec)
    knobs = dict(
        early_abandon=early_abandon, refine_batch_size=None, edr_kernel=edr_kernel
    )
    tiered = [
        (store, build_pruners(store.database, spec), dict(knobs, block_skip=skip))
        for store, skip in tiered_stores
    ]

    def assert_store_row(got, store_knobs, want):
        assert _engine_row(*got) == want
        # A histogram primary takes the blocked source unless told not to.
        blocked = spec.startswith("histogram") and store_knobs["block_skip"]
        assert (got[1].blocks_total > 0) == blocked

    credited = set()
    for query in queries:
        for k in (1, 6):
            want = eager_knn(database, query, k, pruners, early_abandon)
            got = knn_search(database, query, k, pruners, order="index", **knobs)
            assert _engine_row(*got) == want
            credited |= set(want[1])
            want = eager_knn(database, query, k, pruners, early_abandon, sort=True)
            got = knn_search(database, query, k, pruners, **knobs)
            assert _engine_row(*got) == want
            got = knn_sorted_search(database, query, k, pruners[0], pruners[1:], **knobs)
            assert _engine_row(*got) == want
            for store, chain, store_knobs in tiered:
                got = store.knn_sorted_search(
                    query, k, chain[0], chain[1:], **store_knobs
                )
                assert_store_row(got, store_knobs, want)
        for radius in (3.0, 12.0):
            want = eager_range(database, query, radius, pruners, early_abandon)
            got = range_search(database, query, radius, pruners, **knobs)
            assert _engine_row(*got) == want
            for store, chain, store_knobs in tiered:
                got = store.range_search(query, radius, chain, **store_knobs)
                assert_store_row(got, store_knobs, want)
            credited |= set(want[1])
    assert {pruner.name for pruner in pruners[:2]} <= credited


@pytest.mark.parametrize("spec", ["nti", "nti,histogram,qgram", "none"])
@pytest.mark.parametrize("refine_batch_size", [None, 64])
def test_default_order_without_a_static_first_stage(
    routes_workload, spec, refine_batch_size
):
    """A near-triangle first stage has no bound to order by before the
    first refinement (every bound is 0), and an empty chain has no first
    stage at all: the default order must still answer like the scan and
    decide like the oracle's sorted walk."""
    database, queries = routes_workload
    pruners = build_pruners(database, spec)
    for query in queries:
        for k in (1, 6):
            scan, _ = knn_scan(database, query, k)
            got = knn_search(
                database, query, k, pruners, refine_batch_size=refine_batch_size
            )
            assert answers(got[0]) == answers(scan)
            want = eager_knn(database, query, k, pruners, sort=True)
            assert answers(got[0]) == want[0]
            if refine_batch_size is None:
                assert _engine_row(*got) == want
            if not pruners:
                assert got[1].true_distance_computations == len(database)


@pytest.fixture(scope="module")
def clustered_workload(tmp_path_factory):
    """Route-clustered like the benchmark corpus (20 members of each of
    15 routes, jitter 0.2 at ε 0.5), a merged view of it after a few
    inserts and deletes, its tiered store, and held-out queries."""
    rng = np.random.default_rng(5)
    routes = [
        np.cumsum(rng.normal(size=(int(rng.integers(15, 40)), 2)), axis=0)
        for _ in range(15)
    ]

    def member(route):
        return Trajectory(route + rng.normal(scale=0.2, size=route.shape))

    database = TrajectoryDatabase(
        [member(routes[i % len(routes)]) for i in range(300)], epsilon=0.5
    )
    database.warm()
    mutable = MutableDatabase(database)
    for route in (2, 7, 11):
        mutable.insert(member(routes[route]))
    for uid in (4, 150):
        mutable.delete(uid)
    directory = tmp_path_factory.mktemp("clustered-store")
    build_store(
        database.trajectories, directory, database.epsilon,
        parts=("histogram", "qgram"), summary_block=16,
    )
    queries = [member(route) for route in routes]
    with TieredDatabase.open(directory) as store:
        yield database, mutable.view(), store, queries


def test_the_matcher_runs_only_above_the_ceiling(clustered_workload, monkeypatch):
    """Every engine decides like the eager loop, which runs the exact
    histogram stage (the matcher) on every visit that passes the quick
    bound, while the engines call the matcher at most once per bound-order
    query on average: their greedy ceilings settle the rest."""
    database, view, store, queries = clustered_workload
    calls = []
    matchable = HistogramMatcher.matchable

    def counted(matcher, candidate):
        calls.append(1)
        return matchable(matcher, candidate)

    monkeypatch.setattr(HistogramMatcher, "matchable", counted)

    def run(engine, *args, **kwargs):
        """``engine``'s decisions and its matcher calls; the engines
        refine one candidate at a time, as the eager loop does."""
        calls.clear()
        if engine in (eager_knn, eager_range):
            row = engine(*args, **kwargs)
        else:
            row = _engine_row(*engine(*args, refine_batch_size=None, **kwargs))
        return row, len(calls)

    eager_calls = bound_calls = 0
    for corpus in (database, view):
        pruners = build_pruners(corpus, "histogram,qgram")
        for query in queries:
            want, called = run(eager_knn, corpus, query, 10, pruners, sort=True)
            eager_calls += called
            got, called = run(knn_search, corpus, query, 10, pruners)
            assert got == want
            bound_calls += called
            want, _ = run(eager_knn, corpus, query, 10, pruners)
            got, _ = run(knn_search, corpus, query, 10, pruners, order="index")
            assert got == want
            radius = 0.25 * len(query)
            want, _ = run(eager_range, corpus, query, radius, pruners)
            got, _ = run(range_search, corpus, query, radius, pruners)
            assert got == want
    chain = build_pruners(store.database, "histogram,qgram")
    pruners = build_pruners(database, "histogram,qgram")
    for query in queries:
        want, _ = run(eager_knn, database, query, 10, pruners, sort=True)
        for block_skip in (True, False):
            got, _ = run(
                store.knn_sorted_search, query, 10, chain[0], chain[1:],
                block_skip=block_skip,
            )
            assert got == want
    bound_queries = 2 * len(queries)
    assert bound_calls / bound_queries <= 1 < eager_calls / bound_queries


def test_unknown_order_is_rejected(routes_workload):
    database, queries = routes_workload
    with pytest.raises(ValueError, match="visit order"):
        knn_search(database, queries[0], 3, [], order="random")


def test_later_stages_are_filled_on_demand(routes_workload):
    """A secondary pruner's bulk pass covers only the rows that reach it."""
    database, queries = routes_workload
    histogram, qgram = build_pruners(database, "histogram,qgram")
    filled = []

    class CountingQgram:
        name = qgram.name

        def for_query(self, query):
            query_pruner = qgram.for_query(query)
            bulk = query_pruner.bulk_quick_lower_bounds

            def counted(rows=None):
                filled.append(len(database) if rows is None else len(rows))
                return bulk(rows)

            query_pruner.bulk_quick_lower_bounds = counted
            return query_pruner

    for query in queries:
        filled.clear()
        knn_sorted_search(database, query, 3, histogram, [CountingQgram()])
        assert sum(filled) < len(database)
        filled.clear()
        want, _ = range_search(database, query, 5.0, [histogram, qgram])
        got, _ = range_search(database, query, 5.0, [histogram, CountingQgram()])
        assert answers(got) == answers(want)
        assert len(filled) <= 1 and sum(filled) < len(database)


def test_the_clock_covers_each_engines_setup(
    routes_workload, tiered_stores, monkeypatch
):
    """``elapsed_seconds`` covers the primary's full bound pass (the sorted
    walk's sort key) on every engine, and the per-query pruner setup of
    range and the blocked store queries, so speedups computed from it
    compare like with like."""
    database, queries = routes_workload
    pause = 0.05
    for_query = HistogramPruner.for_query

    def slow_for_query(self, query):
        time.sleep(pause)
        query_pruner = for_query(self, query)
        bulk = query_pruner.bulk_quick_lower_bounds

        def slow_bulk(rows=None):
            if rows is None:
                time.sleep(pause)
            return bulk(rows)

        query_pruner.bulk_quick_lower_bounds = slow_bulk
        return query_pruner

    monkeypatch.setattr(HistogramPruner, "for_query", slow_for_query)
    query = queries[0]
    histogram, qgram = build_pruners(database, "histogram,qgram")
    _, stats = knn_search(database, query, 3, [histogram, qgram])
    assert stats.elapsed_seconds >= pause
    _, stats = knn_sorted_search(database, query, 3, histogram, [qgram])
    assert stats.elapsed_seconds >= pause
    _, stats = range_search(database, query, 5.0, [histogram, qgram])
    assert stats.elapsed_seconds >= 2 * pause
    store, _ = tiered_stores[1]
    chain = build_pruners(store.database, "histogram,qgram")
    _, stats = store.knn_sorted_search(query, 3, chain[0], chain[1:])
    assert stats.blocks_total > 0 and stats.elapsed_seconds >= pause
    _, stats = store.range_search(query, 5.0, chain)
    assert stats.blocks_total > 0 and stats.elapsed_seconds >= pause
