"""Unit tests for the service building blocks: cache, metrics, batcher."""

import asyncio
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.search import SearchStats
from repro.service import ResultCache, query_digest
from repro.service.batcher import MicroBatcher
from repro.service.config import ServiceConfig
from repro.service.metrics import LatencyWindow, MetricsRegistry
from repro.service.pruning import canonical_pruner_spec


class TestQueryDigest:
    def test_identical_content_same_digest(self):
        points = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert query_digest(points) == query_digest(points.copy())
        assert query_digest(points) == query_digest(points.tolist())

    def test_different_content_different_digest(self):
        points = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert query_digest(points) != query_digest(points + 1e-12)

    def test_shape_is_part_of_the_digest(self):
        flat = np.arange(6.0)
        assert query_digest(flat.reshape(2, 3)) != query_digest(
            flat.reshape(3, 2)
        )

    def test_non_contiguous_views_digest_by_content(self):
        points = np.arange(12.0).reshape(3, 4)
        view = points[:, ::2]
        assert query_digest(view) == query_digest(np.ascontiguousarray(view))


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes "a"
        cache.put("c", {"v": 3})           # evicts "b", the oldest
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.evictions == 1

    def test_hit_miss_accounting(self):
        cache = ResultCache(4)
        assert cache.get("missing") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        snapshot = cache.snapshot()
        assert snapshot["size"] == 1
        assert snapshot["hit_rate"] == 0.5

    def test_zero_capacity_disables_without_counting(self):
        cache = ResultCache(0)
        assert not cache.enabled
        cache.put("k", {"v": 1})
        assert cache.get("k") is None
        assert cache.hits == 0 and cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ResultCache(-1)


class TestLatencyWindow:
    def test_percentiles_over_window(self):
        window = LatencyWindow(capacity=100)
        for value in range(1, 101):  # 0.001s .. 0.1s
            window.observe(value / 1000.0)
        summary = window.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(51.0)
        assert summary["p99_ms"] == pytest.approx(100.0)
        assert summary["max_ms"] == pytest.approx(100.0)

    def test_ring_buffer_bounds_memory(self):
        window = LatencyWindow(capacity=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            window.observe(value)
        summary = window.summary()
        assert summary["count"] == 5
        assert summary["window"] == 4  # the 1.0 observation fell out

    def test_empty_window(self):
        assert LatencyWindow().summary() == {"count": 0, "window": 0}


class TestMetricsRegistry:
    def test_status_classification(self):
        metrics = MetricsRegistry()
        for status in (200, 503, 504, 400):
            metrics.record_response("/knn", status, 0.01)
        snapshot = metrics.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["timeouts"] == 1
        assert snapshot["errors"] == 1
        assert snapshot["responses"]["200"] == 1

    def test_batch_accounting(self):
        metrics = MetricsRegistry()
        metrics.record_batch(submitted=8, unique=3)
        metrics.record_batch(submitted=2, unique=2)
        batcher = metrics.snapshot()["batcher"]
        assert batcher["batches"] == 2
        assert batcher["requests"] == 10
        assert batcher["unique_computed"] == 5
        assert batcher["coalesced"] == 5
        assert batcher["max_batch_size"] == 8
        assert batcher["mean_batch_size"] == 5.0

    def test_search_stats_aggregation(self):
        metrics = MetricsRegistry()
        first = SearchStats(database_size=100)
        first.true_distance_computations = 20
        first.pruned_by["histogram"] = 80
        second = SearchStats(database_size=100)
        second.true_distance_computations = 40
        metrics.record_search_stats([first, second])
        search = metrics.snapshot()["search"]
        assert search["queries"] == 2
        assert search["candidates"] == 200
        assert search["true_distance_computations"] == 60
        assert search["pruning_power"] == pytest.approx(0.7)
        assert search["pruned_by"] == {"histogram": 80}


class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig().validated()
        assert config.max_batch == 16
        # The batcher never waits, so there is no delay knob to set, and
        # k-NN has one visit order, so there is no engine knob either.
        assert not [name for name in config.public() if "delay" in name]
        assert "engine" not in config.public()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_batch", 0),
            ("cache_size", -1),
            ("queue_limit", 0),
            ("request_timeout_s", 0.0),
            ("k_default", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServiceConfig(**{field: value}).validated()


class TestCanonicalPrunerSpec:
    def test_normalizes_whitespace_and_none(self):
        assert canonical_pruner_spec(" histogram , none , qgram ") == (
            "histogram,qgram"
        )
        assert canonical_pruner_spec("none") == ""
        assert canonical_pruner_spec("") == ""

    def test_order_is_preserved(self):
        assert canonical_pruner_spec("qgram,histogram") == "qgram,histogram"

    def test_unknown_pruner_rejected(self):
        with pytest.raises(ValueError, match="unknown pruner"):
            canonical_pruner_spec("histogram,bogus")


def _run(coroutine):
    return asyncio.run(coroutine)


class _GatedRunner:
    """A batch runner that records each batch and blocks on ``gate``.

    While it blocks, the batcher has a batch outstanding, so every
    submission made meanwhile must queue (or attach to it).
    """

    def __init__(self, fail=False):
        self.gate = threading.Event()
        self.calls = []
        self.fail = fail

    def __call__(self, payloads):
        self.calls.append(list(payloads))
        if not self.gate.wait(timeout=10.0):
            raise TimeoutError("gate never opened")
        if self.fail:
            raise RuntimeError("kaboom")
        return [payload * 10 for payload in payloads]


async def _submit_all(batcher, runner, submissions):
    """Submit ``(key, digest, payload)`` triples in order, one task each,
    letting each register before the next."""
    tasks = []
    for key, digest, payload in submissions:
        tasks.append(
            asyncio.create_task(batcher.submit(key, digest, payload, runner))
        )
        await asyncio.sleep(0)
    return tasks


async def _gated(runner, submissions, max_batch=8, on_batch=None, check=None):
    """Run ``submissions`` while ``runner`` blocks on its first batch.

    ``check(batcher)`` sees the batcher with that batch computing and
    the rest queued; then the gate opens and every outcome is returned
    (exceptions included), in submission order.
    """
    with ThreadPoolExecutor(max_workers=1) as executor:
        batcher = MicroBatcher(
            max_batch=max_batch, executor=executor, on_batch=on_batch
        )
        try:
            tasks = await _submit_all(batcher, runner, submissions)
            if check is not None:
                check(batcher)
        finally:
            runner.gate.set()
        return await asyncio.gather(*tasks, return_exceptions=True)


class TestMicroBatcher:
    def test_lone_submission_dispatches_as_a_batch_of_one(self):
        runner = _GatedRunner()
        runner.gate.set()

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(max_batch=8, executor=executor)
                return await asyncio.wait_for(
                    batcher.submit("key", "a", 1, runner), timeout=5.0
                )

        value, meta = _run(scenario())
        assert runner.calls == [[1]]
        assert value == 10
        assert meta == {"batch_size": 1, "submitted": 1, "coalesced": 0}

    def test_submissions_while_busy_share_the_next_batch(self):
        runner = _GatedRunner()

        def check(batcher):
            assert batcher.outstanding == 1
            assert batcher.pending == 3

        outcomes = _run(
            _gated(
                runner,
                [("key", "a", 1), ("key", "b", 2), ("key", "c", 3),
                 ("key", "d", 4)],
                check=check,
            )
        )
        # The first went out alone; the rest queued behind it and went
        # out together, in arrival order.
        assert runner.calls == [[1], [2, 3, 4]]
        assert [value for value, _ in outcomes] == [10, 20, 30, 40]
        assert outcomes[0][1]["batch_size"] == 1
        assert all(meta["batch_size"] == 3 for _, meta in outcomes[1:])

    def test_duplicate_digests_coalesce(self):
        runner = _GatedRunner()
        outcomes = _run(
            _gated(
                runner,
                [("key", "first", 5), ("key", "same", 7), ("key", "same", 7),
                 ("key", "same", 7), ("key", "other", 1)],
            )
        )
        assert runner.calls == [[5], [7, 1]]  # queued duplicates computed once
        assert [value for value, _ in outcomes] == [50, 70, 70, 70, 10]
        meta = outcomes[1][1]
        assert meta["submitted"] == 4
        assert meta["coalesced"] == 2

    def test_duplicate_of_a_computing_digest_attaches_to_it(self):
        runner = _GatedRunner()

        def check(batcher):
            assert batcher.pending == 0  # nothing queued: it attached

        outcomes = _run(
            _gated(runner, [("key", "a", 1), ("key", "a", 1)], check=check)
        )
        assert runner.calls == [[1]]
        assert [value for value, _ in outcomes] == [10, 10]
        assert all(
            meta == {"batch_size": 1, "submitted": 2, "coalesced": 1}
            for _, meta in outcomes
        )

    def test_full_queue_dispatches_while_busy(self):
        runner = _GatedRunner()

        def check(batcher):
            # b and c filled a max_batch=2 queue and went out at once,
            # although the first batch is still computing.
            assert batcher.outstanding == 2
            assert batcher.pending == 0

        outcomes = _run(
            _gated(
                runner,
                [("key", "a", 1), ("key", "b", 2), ("key", "c", 3)],
                max_batch=2,
                check=check,
            )
        )
        assert runner.calls == [[1], [2, 3]]
        assert [value for value, _ in outcomes] == [10, 20, 30]

    def test_distinct_keys_never_share_a_batch(self):
        runner = _GatedRunner()
        outcomes = _run(
            _gated(
                runner,
                [(("k", 1), "z", 9), (("k", 3), "a", 1), (("k", 5), "a", 2)],
            )
        )
        assert runner.calls == [[9], [1], [2]]
        assert [value for value, _ in outcomes] == [90, 10, 20]

    def test_max_batch_one_dispatches_immediately(self):
        runner = _GatedRunner()

        def check(batcher):
            assert batcher.outstanding == 3
            assert batcher.pending == 0

        outcomes = _run(
            _gated(
                runner,
                [("key", "a", 1), ("key", "a", 1), ("key", "b", 2)],
                max_batch=1,
                check=check,
            )
        )
        # Neither batching nor coalescing: the duplicate computes again.
        assert runner.calls == [[1], [1], [2]]
        assert all(meta["coalesced"] == 0 for _, meta in outcomes)

    def test_runner_failure_reaches_every_waiter(self):
        runner = _GatedRunner(fail=True)
        outcomes = _run(
            _gated(runner, [("key", "a", 1), ("key", "a", 1), ("key", "b", 2)])
        )
        # The computing batch and the duplicate attached to it, and the
        # batch queued behind it, all deliver the error.
        assert runner.calls == [[1], [2]]
        assert len(outcomes) == 3
        assert all(isinstance(out, RuntimeError) for out in outcomes)

    def test_wrong_result_count_is_an_error(self):
        def runner(payloads):
            return list(payloads)[1:]  # one short

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(max_batch=2, executor=executor)
                return await asyncio.gather(
                    batcher.submit("key", "a", 1, runner),
                    batcher.submit("key", "b", 2, runner),
                    return_exceptions=True,
                )

        outcomes = _run(scenario())
        assert all(isinstance(out, RuntimeError) for out in outcomes)

    def test_timeout_of_one_waiter_spares_the_batch(self):
        runner = _GatedRunner()

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(max_batch=8, executor=executor)
                try:
                    impatient = asyncio.create_task(
                        asyncio.wait_for(
                            batcher.submit("key", "a", 1, runner),
                            timeout=0.02,
                        )
                    )
                    await asyncio.sleep(0)
                    patient = asyncio.create_task(
                        batcher.submit("key", "a", 1, runner)
                    )
                    with pytest.raises(asyncio.TimeoutError):
                        await impatient
                finally:
                    runner.gate.set()
                value, meta = await patient
                return value, meta

        value, meta = _run(scenario())
        assert value == 10
        # One uninterrupted computation answered the patient duplicate.
        assert runner.calls == [[1]]
        assert meta["coalesced"] == 1

    def test_drain_dispatches_queued_work_and_waits(self):
        runner = _GatedRunner()

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(max_batch=8, executor=executor)
                try:
                    tasks = await _submit_all(
                        batcher, runner, [("key", "a", 1), ("key", "b", 2)]
                    )
                    assert (batcher.outstanding, batcher.pending) == (1, 1)
                    # Bounded: a blocked batch makes drain report failure.
                    assert not await batcher.drain(timeout=0.05)
                    assert batcher.pending == 0  # the queue went out
                finally:
                    runner.gate.set()
                assert await batcher.drain(timeout=5.0)
                assert batcher.outstanding == 0
                return [value for value, _ in await asyncio.gather(*tasks)]

        assert _run(scenario()) == [10, 20]
        assert runner.calls == [[1], [2]]

    def test_never_arms_a_timer(self, monkeypatch):
        def no_timers(*args, **kwargs):
            raise AssertionError("the batcher must not wait on a timer")

        monkeypatch.setattr(asyncio.BaseEventLoop, "call_later", no_timers)
        monkeypatch.setattr(asyncio.BaseEventLoop, "call_at", no_timers)

        async def scenario():
            runner = _GatedRunner()
            outcomes = await _gated(
                runner,
                [("key", "a", 1), ("key", "a", 1), ("key", "b", 2),
                 ("key", "b", 2), ("other", "c", 3)],
            )
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(max_batch=8, executor=executor)
                lone = await batcher.submit("key", "d", 4, runner)
                assert await batcher.drain()
            return runner.calls, outcomes + [lone]

        calls, outcomes = _run(scenario())
        assert calls == [[1], [2], [3], [4]]
        assert [value for value, _ in outcomes] == [10, 10, 20, 20, 30, 40]

    def test_metrics_count_every_submission_once(self):
        metrics = MetricsRegistry()
        runner = _GatedRunner()
        _run(
            _gated(
                runner,
                [("key", "a", 1), ("key", "a", 1), ("key", "b", 2),
                 ("key", "b", 2), ("key", "c", 3)],
                on_batch=metrics.record_batch,
            )
        )
        batcher = metrics.snapshot()["batcher"]
        assert batcher["requests"] == 5
        assert batcher["unique_computed"] == 3
        assert batcher["coalesced"] == 2
        assert batcher["requests"] == (
            batcher["unique_computed"] + batcher["coalesced"]
        )
        assert batcher["batches"] == 2

    def test_many_interleaved_submissions_stay_consistent(self):
        """Hundreds of submissions over a few keys and a small digest
        pool, arriving while batches compute: every waiter gets its own
        answer, and the accounting adds up."""
        rng = np.random.default_rng(29)
        draws = [
            (int(key), int(digest))
            for key, digest in zip(
                rng.integers(0, 3, size=300), rng.integers(0, 12, size=300)
            )
        ]
        metrics = MetricsRegistry()
        computed = []

        def runner(payloads):
            computed.extend(payloads)
            time.sleep(0.0005)
            return [payload * 10 for payload in payloads]

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    max_batch=4, executor=executor,
                    on_batch=metrics.record_batch,
                )
                tasks = []
                for position, (key, digest) in enumerate(draws):
                    payload = key * 100 + digest
                    tasks.append(
                        asyncio.create_task(
                            batcher.submit(key, digest, payload, runner)
                        )
                    )
                    if position % 7 == 0:
                        await asyncio.sleep(0.001)
                results = await asyncio.gather(*tasks)
                assert await batcher.drain(timeout=5.0)
                assert (batcher.pending, batcher.outstanding) == (0, 0)
                return results

        results = _run(scenario())
        for (key, digest), (value, meta) in zip(draws, results):
            assert value == (key * 100 + digest) * 10
            assert 1 <= meta["batch_size"] <= 4
        batcher = metrics.snapshot()["batcher"]
        assert batcher["requests"] == len(draws)
        assert batcher["unique_computed"] == len(computed)
        assert batcher["requests"] == (
            batcher["unique_computed"] + batcher["coalesced"]
        )
        assert batcher["coalesced"] > 0

    def test_invalid_parameters_rejected(self):
        with ThreadPoolExecutor(max_workers=1) as executor:
            with pytest.raises(ValueError, match="max_batch"):
                MicroBatcher(max_batch=0, executor=executor)
        # max_batch is the only batching knob: there is no delay.
        assert list(inspect.signature(MicroBatcher).parameters) == [
            "max_batch", "executor", "on_batch"
        ]
