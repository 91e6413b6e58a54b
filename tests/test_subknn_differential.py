"""Cross-engine differential fuzz: every subknn surface answers alike.

One seeded generator produces the corpus and query stream; the serial
:func:`repro.subknn_search` is the reference, and every other surface
that serves the workload — the frozen-round sharded engine at shard
counts {1, 2, 3}, the tiered store (serial, and sharded over its own
files), ``knn_batch`` executors, and the HTTP service — must return byte-identical ``(index, start, end,
distance)`` answers *and* byte-identical pruner/window counters,
including the free-start filter stage's ``pruned_by`` entry.  The
serial engine itself is anchored to the brute-force oracle in
test_subtrajectory.py and to the eager frozen-round loop in
test_free_start.py, so equality here extends both guarantees to the
whole engine family.
"""

import numpy as np
import pytest

from repro import (
    ShardedDatabase,
    Trajectory,
    TrajectoryDatabase,
    knn_batch,
    subknn_search,
)
from repro.core.batch import warm_pruners
from repro.core.subtrajectory import FREE_START_STAGE
from repro.service import ServerHandle, ServiceClient, ServiceConfig
from repro.service.pruning import build_pruners
from repro.storage import TieredDatabase, build_store

from .conftest import random_walk_trajectories
from .oracles import payload_windows, window_answers

pytestmark = pytest.mark.subtrajectory

SPECS = ("histogram,qgram", "qgram", "qgram,nti", "")
SHARD_COUNTS = (1, 2, 3)
K = 5


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2026)
    trajectories = random_walk_trajectories(rng, 48, 12, 40)
    database = TrajectoryDatabase(trajectories, epsilon=0.4)
    database.warm(q=1, histogram_bins=1.0)
    queries = [
        database.trajectories[3],
        database.trajectories[31],
        Trajectory(np.cumsum(rng.normal(size=(20, 2)), axis=0)),
        Trajectory(np.cumsum(rng.normal(size=(6, 2)), axis=0)),
    ]
    return database, queries


@pytest.fixture(scope="module")
def chains(workload):
    database, _ = workload
    built = {}
    for spec in SPECS:
        chain = build_pruners(database, spec)
        warm_pruners(chain, database.trajectories[0])
        built[spec] = chain
    return built


@pytest.fixture(scope="module")
def sharded_engines(workload):
    database, _ = workload
    engines = {}
    for shards in SHARD_COUNTS:
        engines[shards] = ShardedDatabase(
            database, shards, specs=list(SPECS), mode="inline"
        )
    yield engines
    for engine in engines.values():
        engine.close()


@pytest.fixture(scope="module")
def tiered(workload, tmp_path_factory):
    database, _ = workload
    directory = tmp_path_factory.mktemp("subknn-store") / "corpus"
    build_store(
        list(database.trajectories),
        directory,
        database.epsilon,
        parts=("histogram", "histogram-1d", "qgram", "nti"),
        chunk_size=16,
        max_triangle=12,
    )
    with TieredDatabase.open(directory) as store:
        yield store


def _counters(stats):
    """Every determinism-contracted counter, as one comparable tuple.

    Also checks the window ledger closes:
    ``evaluated + pruned + abandoned == total``.
    """
    counters = (
        stats.true_distance_computations,
        dict(stats.pruned_by),
        stats.windows_total,
        stats.windows_evaluated,
        stats.windows_pruned,
        stats.windows_abandoned,
    )
    assert sum(counters[3:]) == counters[2], counters
    return counters


def test_the_free_start_stage_engages(workload, chains):
    """Every spec's queries credit the filter stage, so the equalities
    below cover its decisions and not just its absence."""
    database, queries = workload
    for spec in SPECS:
        credited = sum(
            subknn_search(database, query, K, chains[spec])[1].pruned_by.get(
                FREE_START_STAGE, 0
            )
            for query in queries
        )
        assert credited > 0, spec


class TestShardedDifferential:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("early_abandon", (False, True))
    def test_answers_and_counters_byte_equal(
        self, workload, chains, sharded_engines, spec, early_abandon
    ):
        database, queries = workload
        for query in queries:
            want, want_stats = subknn_search(
                database, query, K, chains[spec], early_abandon=early_abandon
            )
            for shards in SHARD_COUNTS:
                got, got_stats = sharded_engines[shards].subknn_search(
                    query, K, spec=spec, early_abandon=early_abandon
                )
                assert window_answers(got) == window_answers(want), (
                    spec,
                    shards,
                )
                assert _counters(got_stats) == _counters(want_stats), (
                    spec,
                    shards,
                )
                assert [
                    s.windows_total for s in got_stats.per_shard
                ] and sum(
                    s.windows_total for s in got_stats.per_shard
                ) == want_stats.windows_total


class TestTieredDifferential:
    @pytest.mark.parametrize("spec", SPECS)
    def test_store_served_answers_byte_equal(
        self, workload, chains, tiered, spec
    ):
        database, queries = workload
        store_chain = build_pruners(tiered.database, spec)
        warm_pruners(store_chain, tiered.database.trajectories[0])
        for query in queries:
            want, want_stats = subknn_search(
                database, query, K, chains[spec]
            )
            got, got_stats = tiered.subknn_search(query, K, store_chain)
            assert window_answers(got) == window_answers(want), spec
            assert _counters(got_stats) == _counters(want_stats), spec

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_store_answers_byte_equal(
        self, workload, chains, tiered, shards
    ):
        """Shards that map the store's own files run the same rounds."""
        database, queries = workload
        with tiered.sharded(shards, specs=SPECS, mode="inline") as engine:
            for spec in SPECS:
                for query in queries:
                    want, want_stats = subknn_search(
                        database, query, K, chains[spec]
                    )
                    got, got_stats = engine.subknn_search(query, K, spec=spec)
                    assert window_answers(got) == window_answers(want), (
                        spec,
                        shards,
                    )
                    assert _counters(got_stats) == _counters(want_stats), (
                        spec,
                        shards,
                    )


class TestBatchDifferential:
    def test_executors_byte_equal(self, workload, chains):
        database, queries = workload
        chain = chains["histogram,qgram"]
        want = [
            subknn_search(database, query, K, chain) for query in queries
        ]
        for kwargs in ({"executor": "serial"}, {"workers": 3}):
            batch = knn_batch(
                database, queries, K, chain, sub=True, **kwargs
            )
            assert batch.extra.get("sub") is True
            for (want_matches, want_stats), (got_matches, got_stats) in zip(
                want, batch
            ):
                assert window_answers(got_matches) == window_answers(
                    want_matches
                )
                assert _counters(got_stats) == _counters(want_stats)


class TestServiceDifferential:
    def test_served_payload_byte_equal(self, workload, chains):
        database, queries = workload
        spec = "histogram,qgram"
        config = ServiceConfig(
            port=0, max_batch=4, cache_size=16, pruners=spec
        )
        with ServerHandle.start(database, config) as server:
            with ServiceClient(server.host, server.port) as client:
                for query in queries:
                    want, want_stats = subknn_search(
                        database, query, K, chains[spec]
                    )
                    served = client.subknn(query, k=K)
                    assert served["matches"] == payload_windows(want)
                    stats = served["stats"]
                    assert (
                        stats["true_distance_computations"],
                        stats["pruned_by"],
                        stats["windows_total"],
                        stats["windows_evaluated"],
                        stats["windows_pruned"],
                        stats["windows_abandoned"],
                    ) == _counters(want_stats)

    def test_huge_finite_alpha_answers_like_a_million(self, workload):
        """Any finite alpha is a defined band: 200, same as alpha=1e6."""
        database, queries = workload
        config = ServiceConfig(port=0, cache_size=0, pruners="histogram,qgram")
        with ServerHandle.start(database, config) as server:
            with ServiceClient(server.host, server.port) as client:
                for query in queries[:2]:
                    want = client.subknn(query, k=K, alpha=1e6)
                    for alpha in (1e19, 1e300, 1e308):
                        served = client.subknn(query, k=K, alpha=alpha)
                        assert served["matches"] == want["matches"]
                        for name in ("windows_total", "windows_evaluated"):
                            assert served["stats"][name] == want["stats"][name]
