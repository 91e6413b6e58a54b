"""Chaos suite: deterministic fault injection against the sharded engine.

Every fault class (worker crash, slow worker, shared-memory attach
failure, pipe EOF, result corruption) is driven at every fault point
(filter and refine dispatch) through the seeded
:class:`repro.core.faults.FaultPlan`, and the engine must come back with
answers and per-pruner counters byte-for-byte identical to the
fault-free run — with every injected fault accounted for in the
recovery counters.  Persistent faults must degrade to the serial engine
(still exact) and :meth:`health_check` must clear the degraded state.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import ShardedDatabase, knn_search
from repro.core import faults
from repro.core.faults import (
    COUNTER_BY_KIND,
    FAULT_KINDS,
    FAULT_POINTS,
    Fault,
    FaultPlan,
    FaultRule,
)
from repro.core.rangequery import range_search
from repro.core.sharding import RECOVERY_FIELDS, _classify
from repro.core.subtrajectory import subknn_search
from repro.service.config import ServiceConfig
from repro.service.handlers import TrajectoryService
from repro.service.pruning import build_pruners

from .oracles import window_answers

SPEC = "histogram,qgram"
SHARDS = 3
K = 5


def _answers(neighbors):
    return [(n.index, n.distance) for n in neighbors]


def _counters(stats):
    return (
        stats.true_distance_computations,
        dict(stats.pruned_by),
        stats.rounds,
    )


def _windows(stats):
    return (
        stats.windows_total,
        stats.windows_evaluated,
        stats.windows_pruned,
        stats.windows_abandoned,
    )


def _serial_windows(database, query):
    return subknn_search(
        database, query, K, build_pruners(database, SPEC), early_abandon=True
    )


def _recovery_total(stats):
    return sum(getattr(stats, COUNTER_BY_KIND[kind]) for kind in FAULT_KINDS)


@pytest.fixture(scope="module")
def workload(sharding_workload):
    return sharding_workload


@pytest.fixture(scope="module")
def engine_factory(workload):
    """Build inline sharded engines (cleaned up at module teardown).

    ``round_timeout_s`` defaults small so a ``slow`` directive (whose
    delay exceeds it) deterministically becomes a timeout instead of an
    actual sleep; ``retry_backoff_s=0`` keeps the suite fast.
    """
    database, _ = workload
    engines = []

    def build(**kwargs):
        kwargs.setdefault("mode", "inline")
        kwargs.setdefault("specs", [SPEC])
        kwargs.setdefault("round_timeout_s", 0.05)
        kwargs.setdefault("retry_backoff_s", 0.0)
        engine = ShardedDatabase(database, SHARDS, **kwargs)
        engines.append(engine)
        return engine

    yield build
    for engine in engines:
        engine.close()


@pytest.fixture(scope="module")
def baseline(workload, engine_factory):
    """Fault-free sharded answers and counters, per query."""
    database, queries = workload
    engine = engine_factory()
    return [engine.knn_search(query, K, spec=SPEC) for query in queries]


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="fault point"):
            FaultRule("gather", "crash")
        with pytest.raises(ValueError, match="fault kind"):
            FaultRule("filter", "meteor")
        with pytest.raises(ValueError, match="step"):
            FaultRule("filter", "crash", step=-1)
        with pytest.raises(ValueError, match="count"):
            FaultRule("filter", "crash", count=0)

    def test_step_window_addresses_visits(self):
        plan = FaultPlan([FaultRule("filter", "crash", step=1, count=2)])
        hits = [bool(plan.directives("filter", 0)) for _ in range(4)]
        assert hits == [False, True, True, False]
        assert plan.fired == [("filter", 0, "crash"), ("filter", 0, "crash")]
        assert plan.fired_by_kind() == {"crash": 2}
        assert plan.exhausted

    def test_point_and_shard_filters(self):
        plan = FaultPlan([FaultRule("refine", "pipe_eof", shard=1)])
        assert plan.directives("filter", 1) == ()
        assert plan.directives("refine", 0) == ()
        # A non-matching shard does not advance the rule's visit counter.
        assert plan.directives("refine", 1) == (Fault("pipe_eof", 0.05),)
        assert plan.directives("refine", 1) == ()
        assert not plan.exhausted or plan.fired_by_kind() == {"pipe_eof": 1}

    def test_any_point_matches_both(self):
        plan = FaultPlan([FaultRule("any", "slow", count=2, delay_s=0.1)])
        assert plan.directives("filter", 0) == (Fault("slow", 0.1),)
        assert plan.directives("refine", 2) == (Fault("slow", 0.1),)
        assert plan.directives("filter", 0) == ()

    def test_random_plan_is_seed_deterministic(self):
        first = FaultPlan.random(11, shards=4, faults=5)
        second = FaultPlan.random(11, shards=4, faults=5)
        assert first.rules == second.rules
        assert len(first.rules) == 5
        for rule in first.rules:
            assert rule.kind in FAULT_KINDS
            assert rule.point in FAULT_POINTS


# ----------------------------------------------------------------------
# Checksums and corruption
# ----------------------------------------------------------------------
class TestChecksums:
    PAYLOADS = [
        {"bounds": np.arange(5.0), "order": np.array([2, 0, 1])},
        [("d", 3, 1.25), ("p", 7)],
        {"nested": {"a": [1, 2.5, None], "b": "text"}},
        {"empty": np.empty((0, 2))},
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_checksum_is_content_stable(self, payload):
        assert faults.checksum(payload) == faults.checksum(payload)

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_corruption_always_changes_checksum(self, payload):
        corrupted = faults.corrupt_payload(payload)
        assert faults.checksum(corrupted) != faults.checksum(payload)

    def test_non_numeric_payload_still_corrupts(self):
        assert faults.checksum(faults.corrupt_payload({"s": "x"})) != (
            faults.checksum({"s": "x"})
        )
        assert faults.checksum(faults.corrupt_payload(["x"])) != (
            faults.checksum(["x"])
        )
        assert faults.checksum(faults.corrupt_payload("x")) != (
            faults.checksum("x")
        )

    def test_checksum_distinguishes_dtype_and_shape(self):
        a = np.arange(6.0)
        assert faults.checksum(a) != faults.checksum(a.reshape(2, 3))
        assert faults.checksum(a) != faults.checksum(a.astype(np.float32))

    def test_wrap_result_checksums_the_true_payload(self):
        payload = {"values": np.arange(3.0)}
        clean, digest = faults.wrap_result(payload, ())
        assert clean is payload
        assert digest == faults.checksum(payload)
        torn, digest = faults.wrap_result(payload, (Fault("corrupt"),))
        assert digest == faults.checksum(payload)
        assert faults.checksum(torn) != digest


# ----------------------------------------------------------------------
# Coordinator-side failure classification
# ----------------------------------------------------------------------
class TestClassification:
    def test_every_fault_class_maps_to_a_counter(self):
        assert set(COUNTER_BY_KIND) == set(FAULT_KINDS)
        assert set(COUNTER_BY_KIND.values()) <= set(RECOVERY_FIELDS)

    def test_unknown_exceptions_are_not_masked(self):
        # A genuine bug (KeyError, ValueError, ...) must not be retried
        # as if it were a transient worker fault.
        assert _classify(ValueError("bug")) is None
        assert _classify(KeyError("bug")) is None
        assert _classify(faults.WorkerCrash("x")) == "worker_crashes"
        assert _classify(faults.WorkerTimeout("x")) == "timeouts"
        assert _classify(faults.ShardAttachError("x")) == "attach_failures"
        assert _classify(faults.ChecksumMismatch("x")) == "checksum_failures"
        assert _classify(EOFError("x")) == "transport_errors"
        assert _classify(BrokenPipeError("x")) == "transport_errors"


# ----------------------------------------------------------------------
# The chaos matrix: every fault class at every fault point, inline
# ----------------------------------------------------------------------
class TestInlineChaos:
    @pytest.mark.parametrize("point", FAULT_POINTS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_single_fault_recovers_byte_for_byte(
        self, workload, engine_factory, baseline, kind, point
    ):
        _, queries = workload
        plan = FaultPlan([FaultRule(point, kind, delay_s=0.2)])
        engine = engine_factory(fault_plan=plan)
        got, stats = engine.knn_search(queries[0], K, spec=SPEC)
        want, clean_stats = baseline[0]

        assert _answers(got) == _answers(want)
        assert _counters(stats) == _counters(clean_stats)
        fired = plan.fired_by_kind()
        assert fired.get(kind) == 1, (kind, point)
        assert getattr(stats, COUNTER_BY_KIND[kind]) == 1
        assert _recovery_total(stats) == len(plan.fired) == 1
        assert stats.retries == 1
        assert not stats.degraded
        assert not engine.degraded

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_window_refine_fault_recovers_byte_for_byte(
        self, workload, engine_factory, kind
    ):
        # Window tasks are the window route's refine wave.
        database, queries = workload
        plan = FaultPlan([FaultRule("refine", kind, delay_s=0.2)])
        engine = engine_factory(fault_plan=plan)
        got, stats = engine.subknn_search(
            queries[0], K, spec=SPEC, early_abandon=True
        )
        want, serial = _serial_windows(database, queries[0])

        assert window_answers(got) == window_answers(want)
        assert _windows(stats) == _windows(serial)
        assert dict(stats.pruned_by) == dict(serial.pruned_by)
        assert [(point, fired) for point, _, fired in plan.fired] == [
            ("refine", kind)
        ]
        assert getattr(stats, COUNTER_BY_KIND[kind]) == 1
        assert _recovery_total(stats) == 1
        assert stats.retries == 1
        assert not stats.degraded

    def test_fault_on_every_shard_same_round(
        self, workload, engine_factory, baseline
    ):
        _, queries = workload
        plan = FaultPlan(
            [FaultRule("filter", "pipe_eof", shard=s) for s in range(SHARDS)]
        )
        engine = engine_factory(fault_plan=plan)
        got, stats = engine.knn_search(queries[1], K, spec=SPEC)
        want, clean_stats = baseline[1]
        assert _answers(got) == _answers(want)
        assert _counters(stats) == _counters(clean_stats)
        assert stats.transport_errors == SHARDS
        assert stats.retries == SHARDS
        assert plan.exhausted

    def test_mixed_faults_across_points(
        self, workload, engine_factory, baseline
    ):
        _, queries = workload
        plan = FaultPlan(
            [
                FaultRule("filter", "crash", shard=0),
                FaultRule("refine", "corrupt"),
                FaultRule("refine", "attach_fail", step=1),
            ]
        )
        engine = engine_factory(fault_plan=plan)
        got, stats = engine.knn_search(queries[2], K, spec=SPEC)
        want, clean_stats = baseline[2]
        assert _answers(got) == _answers(want)
        assert _counters(stats) == _counters(clean_stats)
        assert _recovery_total(stats) == len(plan.fired)
        for kind, count in plan.fired_by_kind().items():
            assert getattr(stats, COUNTER_BY_KIND[kind]) == count

    def test_range_search_recovers_exactly(self, workload, engine_factory):
        database, queries = workload
        plan = FaultPlan(
            [
                FaultRule("filter", "corrupt"),
                FaultRule("refine", "crash"),
            ]
        )
        engine = engine_factory(fault_plan=plan)
        got, stats = engine.range_search(queries[0], 25.0, spec=SPEC)
        want, _ = range_search(
            database, queries[0], 25.0, build_pruners(database, SPEC)
        )
        assert _answers(got) == _answers(want)
        assert stats.checksum_failures == 1
        assert stats.worker_crashes == 1
        assert not stats.degraded

    def test_retry_runs_clean_after_consumed_rule(self, engine_factory):
        # The plan is coordinator-side: once a count=1 rule fired, the
        # retry dispatch draws nothing, so recovery needs exactly one
        # extra attempt per fired rule (asserted via retries == fired
        # throughout this class); here we pin the plan-side view.
        plan = FaultPlan([FaultRule("filter", "crash")])
        assert plan.directives("filter", 0) == (Fault("crash", 0.05),)
        assert plan.directives("filter", 0) == ()
        assert plan.exhausted


# ----------------------------------------------------------------------
# Persistent faults: graceful degradation to the serial engine
# ----------------------------------------------------------------------
class TestDegradation:
    def test_persistent_fault_degrades_but_stays_exact(
        self, workload, engine_factory
    ):
        database, queries = workload
        # Three attempts (max_retries=2) all crash -> serial fallback.
        plan = FaultPlan([FaultRule("filter", "crash", count=3)])
        engine = engine_factory(fault_plan=plan, max_retries=2)
        got, stats = engine.knn_search(queries[0], K, spec=SPEC)
        want, _ = knn_search(
            database, queries[0], K, build_pruners(database, SPEC)
        )
        assert _answers(got) == _answers(want)
        assert stats.degraded
        assert engine.degraded
        assert stats.worker_crashes == 3
        assert stats.retries == 2
        assert plan.exhausted
        assert engine.resilience()["degraded_queries"] == 1
        assert engine.resilience()["degraded"] is True

        # The plan is spent, so the next query runs sharded and clean —
        # and a successful sharded query clears the degraded flag.
        got, stats = engine.knn_search(queries[1], K, spec=SPEC)
        want, _ = knn_search(
            database, queries[1], K, build_pruners(database, SPEC)
        )
        assert _answers(got) == _answers(want)
        assert not stats.degraded
        assert not engine.degraded
        assert engine.resilience()["degraded"] is False

    def test_health_check_clears_degraded(self, workload, engine_factory):
        _, queries = workload
        plan = FaultPlan([FaultRule("refine", "pipe_eof", count=3)])
        engine = engine_factory(fault_plan=plan, max_retries=2)
        _, stats = engine.knn_search(queries[0], K, spec=SPEC)
        assert stats.degraded and engine.degraded
        assert engine.health_check()
        assert not engine.degraded

    def test_range_degradation_matches_serial(
        self, workload, engine_factory
    ):
        database, queries = workload
        plan = FaultPlan([FaultRule("filter", "attach_fail", count=2)])
        engine = engine_factory(fault_plan=plan, max_retries=1)
        got, stats = engine.range_search(queries[1], 25.0, spec=SPEC)
        want, _ = range_search(
            database, queries[1], 25.0, build_pruners(database, SPEC)
        )
        assert _answers(got) == _answers(want)
        assert stats.degraded
        assert stats.attach_failures == 2

    def test_window_degradation_matches_serial(
        self, workload, engine_factory
    ):
        database, queries = workload
        plan = FaultPlan([FaultRule("refine", "crash", count=3)])
        engine = engine_factory(fault_plan=plan, max_retries=2)
        got, stats = engine.subknn_search(
            queries[2], K, spec=SPEC, early_abandon=True
        )
        want, serial = _serial_windows(database, queries[2])
        assert window_answers(got) == window_answers(want)
        assert dict(stats.pruned_by) == dict(serial.pruned_by)
        assert _windows(stats) == _windows(serial)
        assert stats.degraded and engine.degraded
        assert stats.worker_crashes == 3
        assert engine.resilience()["degraded_queries"] == 1

    def test_lifetime_counters_accumulate(self, workload, engine_factory):
        _, queries = workload
        plan = FaultPlan(
            [
                FaultRule("filter", "crash"),
                FaultRule("refine", "corrupt", step=0),
            ]
        )
        engine = engine_factory(fault_plan=plan)
        engine.knn_search(queries[0], K, spec=SPEC)
        engine.knn_search(queries[1], K, spec=SPEC)
        snapshot = engine.resilience()
        assert snapshot["worker_crashes"] == 1
        assert snapshot["checksum_failures"] == 1
        assert snapshot["retries"] == 2
        assert snapshot["degraded_queries"] == 0


# ----------------------------------------------------------------------
# Seeded fuzzing: random plans may degrade, but never go inexact
# ----------------------------------------------------------------------
class TestRandomPlans:
    @pytest.mark.parametrize("seed", range(8))
    def test_answers_survive_any_random_plan(
        self, workload, engine_factory, baseline, seed
    ):
        _, queries = workload
        plan = FaultPlan.random(seed, shards=SHARDS, faults=4, delay_s=0.2)
        engine = engine_factory(fault_plan=plan, max_retries=2)
        for index, query in enumerate(queries):
            got, stats = engine.knn_search(query, K, spec=SPEC)
            want, clean_stats = baseline[index]
            assert _answers(got) == _answers(want), seed
            if not stats.degraded:
                assert _counters(stats) == _counters(clean_stats), seed
        # Everything the plan injected was either recovered or absorbed
        # by the serial fallback — never silently ignored.
        if plan.fired:
            assert engine.resilience()["retries"] >= 1 or (
                engine.resilience()["degraded_queries"] >= 1
            )


# ----------------------------------------------------------------------
# Process mode: real crashes, real hangs
# ----------------------------------------------------------------------
@pytest.mark.process
class TestProcessChaos:
    def test_real_worker_crash_is_respawned(self, workload):
        database, queries = workload
        plan = FaultPlan([FaultRule("filter", "crash")])
        engine = ShardedDatabase(
            database, 2, specs=[SPEC], mode="process", fault_plan=plan
        )
        try:
            got, stats = engine.knn_search(queries[0], K, spec=SPEC)
            want, _ = knn_search(
                database, queries[0], K, build_pruners(database, SPEC)
            )
            assert _answers(got) == _answers(want)
            assert stats.worker_crashes == 1
            assert stats.respawns == 1
            assert stats.retries == 1
            assert not stats.degraded
            # The respawned pool serves the next query without faults.
            got, stats = engine.knn_search(queries[1], K, spec=SPEC)
            want, _ = knn_search(
                database, queries[1], K, build_pruners(database, SPEC)
            )
            assert _answers(got) == _answers(want)
            assert stats.worker_crashes == 0
            assert engine.health_check()
        finally:
            engine.close()

    def test_hung_worker_hits_round_timeout(self, workload):
        database, queries = workload
        plan = FaultPlan([FaultRule("filter", "slow", delay_s=5.0)])
        engine = ShardedDatabase(
            database, 2, specs=[SPEC], mode="process",
            fault_plan=plan, round_timeout_s=0.5,
        )
        try:
            got, stats = engine.knn_search(queries[0], K, spec=SPEC)
            want, _ = knn_search(
                database, queries[0], K, build_pruners(database, SPEC)
            )
            assert _answers(got) == _answers(want)
            assert stats.timeouts == 1
            assert stats.respawns == 1
            assert not stats.degraded
        finally:
            engine.close()

    def test_persistent_crashes_degrade_then_recover(self, workload):
        database, queries = workload
        # Pinned to one shard: process mode pre-submits every shard's
        # first attempt, so an unpinned rule would spread its window
        # across shards and each would stay within its retry budget.
        plan = FaultPlan([FaultRule("filter", "crash", shard=0, count=3)])
        engine = ShardedDatabase(
            database, 2, specs=[SPEC], mode="process",
            fault_plan=plan, max_retries=2,
        )
        try:
            got, stats = engine.knn_search(queries[0], K, spec=SPEC)
            want, _ = knn_search(
                database, queries[0], K, build_pruners(database, SPEC)
            )
            assert _answers(got) == _answers(want)
            assert stats.degraded and engine.degraded
            assert engine.health_check()
            assert not engine.degraded
            got, stats = engine.knn_search(queries[1], K, spec=SPEC)
            want, _ = knn_search(
                database, queries[1], K, build_pruners(database, SPEC)
            )
            assert _answers(got) == _answers(want)
            assert not stats.degraded
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Service-level surfacing: /healthz, /stats, reject_on_degraded
# ----------------------------------------------------------------------
class TestServiceDegradedSignals:
    def test_degraded_surfaces_and_clears(self, workload):
        database, _ = workload
        config = ServiceConfig(
            shards=1, max_batch=1, cache_size=0, reject_on_degraded=True
        )
        service = TrajectoryService(database, config)
        # Inject an inline sharded engine whose plan defeats the retry
        # budget on the first query (config.shards stays 1 so warm-up
        # does not build a competing process-mode engine).
        plan = FaultPlan([FaultRule("filter", "crash", count=3)])
        service.engine.sharded = ShardedDatabase(
            database, 2, specs=[SPEC], mode="inline",
            fault_plan=plan, max_retries=2, retry_backoff_s=0.0,
        )

        async def run():
            body = json.dumps({"query": 0, "k": K}).encode()
            status, payload, _ = await service.handle("POST", "/knn", body)
            assert status == 200
            want, _ = knn_search(
                database, database.trajectories[0], K,
                build_pruners(database, SPEC),
            )
            got = [(n["index"], n["distance"]) for n in payload["neighbors"]]
            assert got == [(n.index, float(n.distance)) for n in want]
            assert service.engine.sharded.degraded

            # Degraded admission: compute requests are shed with 503.
            status, error, headers = await service.handle(
                "POST", "/knn", body
            )
            assert status == 503
            assert "degraded" in error["error"]
            assert "Retry-After" in headers

            status, stats, _ = await service.handle("GET", "/stats", b"")
            assert status == 200
            resilience = stats["sharding"]["resilience"]
            assert resilience["worker_crashes"] == 3
            assert resilience["retries"] == 2
            assert resilience["degraded_queries"] == 1

            status, health, _ = await service.handle("GET", "/healthz", b"")
            assert status == 200
            assert health["status"] == "degraded"
            assert health["sharding"]["degraded"] is True
            assert health["sharding"]["degraded_queries"] == 1

            # /healthz schedules a background probe that revives the
            # engine; poll until the recovery is visible.
            for _ in range(100):
                status, health, _ = await service.handle(
                    "GET", "/healthz", b""
                )
                if health["status"] == "ok":
                    break
                await asyncio.sleep(0.02)
            assert health["status"] == "ok"
            assert not service.engine.sharded.degraded

            # Admission and sharded serving are back (plan is spent).
            status, payload, _ = await service.handle("POST", "/knn", body)
            assert status == 200
            got = [(n["index"], n["distance"]) for n in payload["neighbors"]]
            assert got == [(n.index, float(n.distance)) for n in want]

        try:
            asyncio.run(run())
        finally:
            service.close()
