"""Live ingest through the resident service: hot swap, cache, chaos.

Covers the PR-8 satellites:

* stale-cache regression — the result-cache key carries the epoch
  token and the cache is flushed on swap, so a hot swap can never serve
  a pre-swap answer;
* concurrent readers during swap — threaded ``/knn`` clients across
  three compaction cycles, every response byte-equal to one epoch's
  cold oracle (old or new, never a mix);
* ``swap:attach`` chaos — a crash while attaching the new generation
  leaves the old epoch serving and the swap retryable.
"""

import threading

import numpy as np
import pytest

from repro import Trajectory, TrajectoryDatabase, knn_search
from repro.core.batch import warm_pruners
from repro.core.faults import FaultPlan, FaultRule, WorkerCrash
from repro.ingest import IngestRoot, compact
from repro.service import ServerHandle, ServiceClient, ServiceConfig
from repro.service.pruning import build_pruners

EPSILON = 0.4
SPEC = "histogram,qgram"


def _walk(rng, length):
    return Trajectory(np.cumsum(rng.normal(size=(length, 2)), axis=0))


def _corpus(seed, count):
    rng = np.random.default_rng(seed)
    return [_walk(rng, int(rng.integers(12, 35))) for _ in range(count)]


def _oracle_payload(root, query, k=5):
    """The cold-built answer for the root's current logical corpus."""
    mutable = root.open_mutable()
    try:
        snapshot, _ = mutable.snapshot()
        cold = TrajectoryDatabase(
            [
                Trajectory(np.array(t.points), trajectory_id=i)
                for i, t in enumerate(snapshot)
            ],
            EPSILON,
        )
    finally:
        mutable.close()
    pruners = build_pruners(cold, SPEC)
    warm_pruners(pruners, cold.trajectories[0])
    neighbors, _ = knn_search(cold, query, k, pruners)
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in neighbors
    ]


@pytest.fixture()
def root(tmp_path):
    return IngestRoot.init(tmp_path / "root", _corpus(81, 30), EPSILON)


@pytest.fixture()
def shards():
    return 1


@pytest.fixture()
def server(root, shards):
    config = ServiceConfig(
        port=0,
        ingest_root=str(root.root),
        pruners=SPEC,
        cache_size=64,
        max_batch=4,
        max_delay_ms=2.0,
        shards=shards,
    )
    with ServerHandle.start(None, config) as handle:
        yield handle


class TestStaleCacheRegression:
    @pytest.mark.parametrize(
        "shards", [1, pytest.param(2, marks=pytest.mark.process)]
    )
    def test_swap_flushes_cache_and_rekeys_epoch(self, root, server, shards):
        rng = np.random.default_rng(82)
        query = _walk(rng, 20)
        with ServiceClient(server.host, server.port) as client:
            first = client.knn(query, k=5)
            assert first["meta"]["cached"] is False
            assert client.knn(query, k=5)["meta"]["cached"] is True
            assert first["neighbors"] == _oracle_payload(root, query)

            # Out-of-band mutation + compaction changes the corpus.
            mutable = root.open_mutable()
            for _ in range(5):
                mutable.insert(_walk(rng, 18))
            mutable.delete(0)
            mutable.close()
            compact(root)

            token_before = server.service._epoch_token
            sharded_before = server.service.engine.sharded
            assert (sharded_before is not None) == (shards > 1)
            assert server.service.reload_if_changed().result(timeout=60)
            assert server.service._epoch_token != token_before
            if shards > 1:
                # The new generation got its own shard engine; the old
                # one was closed when the swap published.
                sharded_after = server.service.engine.sharded
                assert sharded_after is not None
                assert sharded_after is not sharded_before
                assert sharded_after.shards == shards
                assert sharded_before._closed

            # The regression: without epoch keys + flush-on-swap this
            # would be a cache hit serving the pre-swap answer.
            after = client.knn(query, k=5)
            assert after["meta"]["cached"] is False
            assert after["neighbors"] == _oracle_payload(root, query)
            assert client.healthz()["ingest"]["swaps"] == 1

    def test_unchanged_root_schedules_nothing(self, root, server):
        assert server.service.reload_if_changed() is None


class TestConcurrentReadersDuringSwap:
    def test_every_response_matches_one_epoch_oracle(self, root, server):
        """Threaded /knn across three compaction cycles: each response
        equals some epoch's cold oracle — never a torn mix."""
        rng = np.random.default_rng(83)
        queries = [_walk(rng, 16 + 3 * i) for i in range(3)]
        # Oracles for every epoch this test publishes, keyed by payload.
        valid = {i: [_oracle_payload(root, q)] for i, q in enumerate(queries)}

        stop = threading.Event()
        failures = []
        responses = {i: 0 for i in range(len(queries))}

        def reader(slot):
            with ServiceClient(server.host, server.port, retries=2) as client:
                while not stop.is_set():
                    got = client.knn(queries[slot], k=5)["neighbors"]
                    if got not in valid[slot]:
                        failures.append((slot, got))
                        return
                    responses[slot] += 1

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(len(queries))
        ]
        for thread in threads:
            thread.start()

        try:
            for cycle in range(3):
                mutable = root.open_mutable()
                for _ in range(4):
                    mutable.insert(_walk(rng, int(rng.integers(12, 30))))
                mutable.delete(mutable.live_uids()[cycle])
                mutable.close()
                compact(root)
                # Register the new epoch's oracle BEFORE swapping, so a
                # response under either epoch validates.
                for i, q in enumerate(queries):
                    valid[i].append(_oracle_payload(root, q))
                future = server.service.reload_if_changed()
                assert future is not None and future.result(timeout=120)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)

        assert not failures, f"torn responses: {failures[:2]}"
        assert all(count > 0 for count in responses.values())
        assert server.service._swaps == 3
        assert server.service._mutable.generation == "gen-000003"


class TestSwapAttachChaos:
    def test_crash_at_swap_attach_keeps_old_epoch_serving(self, root, server):
        rng = np.random.default_rng(84)
        query = _walk(rng, 20)
        with ServiceClient(server.host, server.port) as client:
            before = client.knn(query, k=5)["neighbors"]
            old_oracle = _oracle_payload(root, query)
            assert before == old_oracle

            mutable = root.open_mutable()
            mutable.insert(_walk(rng, 25))
            mutable.close()
            compact(root)

            plan = FaultPlan([FaultRule(point="swap:attach", kind="crash")])
            server.service._swap_fault_plan = plan
            future = server.service.reload_if_changed()
            with pytest.raises(WorkerCrash):
                future.result(timeout=60)
            assert plan.fired_by_kind() == {"crash": 1}
            assert server.service._swap_failures == 1
            assert server.service._swaps == 0

            # Old epoch still serves, byte-equal to its oracle.
            assert client.knn(query, k=5)["neighbors"] == old_oracle

            # The plan is exhausted: the retry succeeds and attaches.
            retry = server.service.reload_if_changed()
            assert retry is not None and retry.result(timeout=60)
            assert server.service._swaps == 1
            assert client.knn(query, k=5)["neighbors"] == _oracle_payload(
                root, query
            )
