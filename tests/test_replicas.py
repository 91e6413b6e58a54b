"""The replicated serving tier: routing, the fleet-wide cache, rolling
deploys, and fault recovery.

The acceptance bar is the same as every other serving tier in this
repo: answers must equal direct :func:`repro.knn_search` /
:func:`repro.range_search` calls byte for byte — including while a
replica is being crashed, corrupted, redeployed, or drained out from
under the request.
"""

import asyncio
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Trajectory, TrajectoryDatabase, knn_search, range_search
from repro.core.batch import warm_pruners
from repro.core.faults import (
    FAULT_KINDS,
    REPLICA_POINTS,
    FaultPlan,
    FaultRule,
)
from repro.service import (
    FleetRejection,
    FleetSpec,
    ReplicaFleet,
    ServerHandle,
    ServiceClient,
    ServiceConfig,
)
from repro.service.metrics import summarize_samples
from repro.service.pruning import build_pruners
from repro.service.replicas import (
    FLEET_COUNTER_BY_KIND,
    _signature_hash,
)

from .oracles import payload_answers

SPEC = "histogram,qgram"


# ----------------------------------------------------------------------
# Unit tests: no processes spawned
# ----------------------------------------------------------------------
class TestSignatureHash:
    def test_deterministic(self):
        signature = ("knn", "abc123", 5, SPEC)
        assert _signature_hash(signature) == _signature_hash(signature)

    def test_distinct_signatures_hash_apart(self):
        values = {
            _signature_hash(("knn", f"digest{i}", 5, SPEC))
            for i in range(100)
        }
        assert len(values) == 100


class TestRing:
    def _fake_fleet(self, replicas, depths, epochs=None):
        """A fleet with fake handles — routing logic only, no processes."""
        config = ServiceConfig(replicas=replicas)
        fleet = ReplicaFleet.__new__(ReplicaFleet)
        fleet.config = config
        fleet.replicas = replicas
        fleet.epoch = max(epochs) if epochs else 1
        fleet._membership = threading.RLock()
        fleet.shed = 0
        fleet.spillovers = 0
        fleet._slots = [
            SimpleNamespace(
                slot=i,
                state="live",
                epoch=(epochs or [1] * replicas)[i],
                depth=depths[i],
            )
            for i in range(replicas)
        ]
        fleet._build_ring()
        return fleet

    def test_ring_covers_every_slot(self):
        fleet = self._fake_fleet(4, [0, 0, 0, 0])
        slots = {slot for _, slot in fleet._ring}
        assert slots == {0, 1, 2, 3}

    def test_ring_split_is_roughly_balanced(self):
        fleet = self._fake_fleet(4, [0, 0, 0, 0])
        counts = [0, 0, 0, 0]
        for i in range(4000):
            handle = fleet._route(
                _signature_hash(("knn", f"q{i}", 5, SPEC)), 0
            )
            counts[handle.slot] += 1
        # Consistent hashing with 64 vnodes per slot: each slot should
        # own a substantial share of the signature space.
        assert min(counts) > 400

    def test_same_signature_routes_to_same_slot(self):
        fleet = self._fake_fleet(4, [0, 0, 0, 0])
        sig = _signature_hash(("knn", "stable", 5, SPEC))
        slots = {fleet._route(sig, 0).slot for _ in range(10)}
        assert len(slots) == 1

    def test_spillover_abandons_affinity_when_home_is_deep(self):
        fleet = self._fake_fleet(2, [0, 0])
        sig = _signature_hash(("knn", "q", 5, SPEC))
        home = fleet._route(sig, 0).slot
        fleet._slots[home].depth = fleet.config.replica_spillover_depth
        routed = fleet._route(sig, 0)
        assert routed.slot != home
        assert fleet.spillovers == 1

    def test_no_spillover_when_sibling_is_no_better(self):
        depth = ServiceConfig().replica_spillover_depth
        fleet = self._fake_fleet(2, [depth, depth])
        sig = _signature_hash(("knn", "q", 5, SPEC))
        home = fleet._route(sig, 0).slot
        assert fleet.spillovers == 0
        assert fleet._route(sig, 0).slot == home

    def test_saturated_fleet_sheds(self):
        depth = ServiceConfig().replica_queue_depth
        fleet = self._fake_fleet(2, [depth, depth])
        with pytest.raises(FleetRejection):
            fleet._route(_signature_hash(("knn", "q", 5, SPEC)), 0)
        assert fleet.shed == 1

    def test_min_epoch_fences_out_old_replicas(self):
        fleet = self._fake_fleet(2, [0, 0], epochs=[1, 2])
        for i in range(50):
            handle = fleet._route(
                _signature_hash(("knn", f"q{i}", 5, SPEC)), 2
            )
            assert handle.epoch >= 2

    def test_no_eligible_replica_sheds(self):
        fleet = self._fake_fleet(2, [0, 0])
        for handle in fleet._slots:
            handle.state = "dead"
        with pytest.raises(FleetRejection):
            fleet._route(_signature_hash(("knn", "q", 5, SPEC)), 0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"replica_queue_depth": 0},
            {"replica_spillover_depth": 0},
            {"replica_rpc_timeout_s": 0.0},
            {"replica_retries": -1},
            {"replica_spawn_timeout_s": 0.0},
        ],
    )
    def test_bad_replica_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs).validated()

    def test_defaults_validate(self):
        assert ServiceConfig().validated().replicas == 1


class TestFaultWiring:
    def test_replica_rpc_is_a_known_point(self):
        assert "replica:rpc" in REPLICA_POINTS
        FaultRule("replica:rpc", "crash")  # does not raise

    def test_unknown_point_still_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("replica:tcp", "crash")

    def test_every_fault_kind_has_a_fleet_counter(self):
        assert set(FLEET_COUNTER_BY_KIND) == set(FAULT_KINDS)


class TestSummarizeSamples:
    def test_matches_latency_window_shape(self):
        summary = summarize_samples([0.010, 0.020, 0.030])
        assert summary["count"] == 3
        assert summary["window"] == 3
        assert summary["p50_ms"] == pytest.approx(20.0)

    def test_total_count_can_exceed_window(self):
        summary = summarize_samples([0.010], count=500)
        assert summary["count"] == 500
        assert summary["window"] == 1

    def test_empty(self):
        assert summarize_samples([]) == {"count": 0, "window": 0}


# ----------------------------------------------------------------------
# Integration: real replica processes
# ----------------------------------------------------------------------
def _tiny_database(seed=7, count=40, reverse=False):
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(np.cumsum(rng.normal(size=(20, 2)), axis=0))
        for _ in range(count)
    ]
    if reverse:
        trajectories = trajectories[::-1]
    return TrajectoryDatabase(trajectories, epsilon=0.5)


def _oracle_knn(database, query, k, spec=SPEC):
    chain = build_pruners(database, spec)
    warm_pruners(chain, database.trajectories[0])
    neighbors, _ = knn_search(database, query, k, chain)
    return payload_answers(neighbors)


def _oracle_range(database, query, radius, spec=SPEC):
    chain = build_pruners(database, spec)
    warm_pruners(chain, database.trajectories[0])
    results, _ = range_search(database, query, radius, chain)
    return payload_answers(results)


def _knn_payload(database, index, k):
    points = database.trajectories[index].points.tolist()
    signature = ("knn", f"test-{index}", k, SPEC)
    return signature, {"points": points, "k": k, "spec": SPEC}


@pytest.fixture(scope="module")
def fleet_database():
    return _tiny_database()


@pytest.fixture()
def fleet(fleet_database):
    config = ServiceConfig(
        replicas=3, cache_size=16, pruners=SPEC, replica_retries=3
    ).validated()
    instance = ReplicaFleet(FleetSpec(fleet_database, config))
    instance.start()
    yield instance
    instance.close()


def _run(coro):
    return asyncio.run(coro)


@pytest.mark.process
class TestFleetExactness:
    def test_knn_matches_direct_search(self, fleet, fleet_database):
        async def go():
            for index in (0, 7, 23):
                signature, payload = _knn_payload(fleet_database, index, 5)
                body, meta = await fleet.submit("knn", signature, payload)
                oracle = _oracle_knn(
                    fleet_database, fleet_database.trajectories[index], 5
                )
                assert body["neighbors"] == oracle
                assert meta["epoch"] == 1

        _run(go())

    def test_range_matches_direct_search(self, fleet, fleet_database):
        async def go():
            query = fleet_database.trajectories[3]
            payload = {
                "points": query.points.tolist(),
                "radius": 12.0,
                "spec": SPEC,
            }
            body, _ = await fleet.submit(
                "range", ("range", "r3", 12.0, SPEC), payload
            )
            assert body["results"] == _oracle_range(
                fleet_database, query, 12.0
            )

        _run(go())

    def test_repeat_hits_the_replica_cache(self, fleet, fleet_database):
        async def go():
            signature, payload = _knn_payload(fleet_database, 11, 3)
            _, first = await fleet.submit("knn", signature, payload)
            body, second = await fleet.submit("knn", signature, payload)
            assert not first["cached"]
            assert second["cached"]
            # Hash affinity: the repeat landed on the same replica.
            assert second["replica"] == first["replica"]
            assert body["neighbors"] == _oracle_knn(
                fleet_database, fleet_database.trajectories[11], 3
            )

        _run(go())

    def test_concurrent_duplicates_coalesce(self, fleet, fleet_database):
        async def go():
            signature, payload = _knn_payload(fleet_database, 17, 4)
            results = await asyncio.gather(
                *(fleet.submit("knn", signature, payload) for _ in range(4))
            )
            bodies = [body for body, _ in results]
            assert all(body == bodies[0] for body in bodies)
            flags = [meta["coalesced"] for _, meta in results]
            assert any(flags) and not all(flags)

        _run(go())

    def test_distinct_queries_spread_across_replicas(
        self, fleet, fleet_database
    ):
        async def go():
            used = set()
            for index in range(12):
                signature, payload = _knn_payload(fleet_database, index, 3)
                _, meta = await fleet.submit("knn", signature, payload)
                used.add(meta["replica"])
            assert len(used) >= 2

        _run(go())


@pytest.mark.process
class TestFleetChaos:
    def test_crash_recovers_with_exact_answer(self, fleet, fleet_database):
        plan = FaultPlan([FaultRule("replica:rpc", "crash", count=1)])
        fleet._fault_plan = plan

        async def go():
            signature, payload = _knn_payload(fleet_database, 5, 3)
            body, meta = await fleet.submit("knn", signature, payload)
            assert body["neighbors"] == _oracle_knn(
                fleet_database, fleet_database.trajectories[5], 3
            )
            assert meta["attempts"] == 2
            counters = fleet.resilience()
            assert counters["replica_crashes"] == 1
            assert counters["retried_on_sibling"] == 1
            # The condemned slot respawns in the background.
            for _ in range(200):
                if fleet.resilience()["respawns"] >= 1:
                    break
                await asyncio.sleep(0.05)
            assert fleet.resilience()["respawns"] == 1
            snapshot = fleet.snapshot()
            assert snapshot["alive"] == snapshot["count"]

        _run(go())

    def test_corruption_detected_and_retried(self, fleet, fleet_database):
        plan = FaultPlan([FaultRule("replica:rpc", "corrupt", count=1)])
        fleet._fault_plan = plan

        async def go():
            signature, payload = _knn_payload(fleet_database, 9, 3)
            body, meta = await fleet.submit("knn", signature, payload)
            assert body["neighbors"] == _oracle_knn(
                fleet_database, fleet_database.trajectories[9], 3
            )
            assert meta["attempts"] == 2
            assert fleet.resilience()["checksum_failures"] == 1
            assert plan.fired_by_kind() == {"corrupt": 1}

        _run(go())

    def test_pipe_eof_is_a_transport_retry(self, fleet, fleet_database):
        plan = FaultPlan([FaultRule("replica:rpc", "pipe_eof", count=1)])
        fleet._fault_plan = plan

        async def go():
            signature, payload = _knn_payload(fleet_database, 13, 3)
            body, _ = await fleet.submit("knn", signature, payload)
            assert body["neighbors"] == _oracle_knn(
                fleet_database, fleet_database.trajectories[13], 3
            )
            assert fleet.resilience()["transport_errors"] == 1

        _run(go())

    def test_hung_replica_times_out_and_is_condemned(self, fleet_database):
        config = ServiceConfig(
            replicas=2,
            cache_size=16,
            pruners=SPEC,
            replica_retries=3,
            replica_rpc_timeout_s=0.5,
        ).validated()
        fleet = ReplicaFleet(FleetSpec(fleet_database, config))
        fleet.start()
        try:
            fleet._fault_plan = FaultPlan(
                [FaultRule("replica:rpc", "slow", count=1, delay_s=5.0)]
            )

            async def go():
                signature, payload = _knn_payload(fleet_database, 2, 3)
                body, _ = await fleet.submit("knn", signature, payload)
                assert body["neighbors"] == _oracle_knn(
                    fleet_database, fleet_database.trajectories[2], 3
                )
                assert fleet.resilience()["timeouts"] == 1

            _run(go())
        finally:
            fleet.close()

    def test_exhausted_retries_reject(self, fleet_database):
        config = ServiceConfig(
            replicas=2, cache_size=16, pruners=SPEC, replica_retries=1
        ).validated()
        fleet = ReplicaFleet(FleetSpec(fleet_database, config))
        fleet.start()
        try:
            # More persistent than the retry budget.
            fleet._fault_plan = FaultPlan(
                [FaultRule("replica:rpc", "corrupt", count=10)]
            )

            async def go():
                signature, payload = _knn_payload(fleet_database, 4, 3)
                with pytest.raises(FleetRejection):
                    await fleet.submit("knn", signature, payload)

            _run(go())
        finally:
            fleet.close()


@pytest.mark.process
class TestRollingDeploy:
    def test_epoch_bumps_and_answers_stay_exact(self, fleet, fleet_database):
        async def go():
            signature, payload = _knn_payload(fleet_database, 6, 3)
            _, before = await fleet.submit("knn", signature, payload)
            assert before["epoch"] == 1
            loop = asyncio.get_running_loop()
            new_epoch = await loop.run_in_executor(
                None,
                fleet.rolling_deploy,
                FleetSpec(fleet_database, fleet.config, "deploy:test"),
            )
            assert new_epoch == 2
            body, after = await fleet.submit(
                "knn", signature, payload, min_epoch=new_epoch
            )
            assert after["epoch"] == 2
            assert not after["cached"]  # caches died with the old fleet
            assert body["neighbors"] == _oracle_knn(
                fleet_database, fleet_database.trajectories[6], 3
            )
            assert fleet.resilience()["deploys"] == 1

        _run(go())

    def test_deploy_replaces_the_database(self, fleet_database):
        """The stale-cache regression: after a deploy the fleet serves
        the new corpus, never a cached pre-deploy answer."""
        config = ServiceConfig(
            replicas=2, cache_size=16, pruners=SPEC
        ).validated()
        fleet = ReplicaFleet(FleetSpec(fleet_database, config))
        fleet.start()
        try:
            reversed_db = _tiny_database(reverse=True)

            async def go():
                query = fleet_database.trajectories[0]
                payload = {
                    "points": query.points.tolist(),
                    "k": 3,
                    "spec": SPEC,
                }
                signature = ("knn", "deploy-q", 3, SPEC)
                body, _ = await fleet.submit("knn", signature, payload)
                old_oracle = _oracle_knn(fleet_database, query, 3)
                assert body["neighbors"] == old_oracle
                loop = asyncio.get_running_loop()
                epoch = await loop.run_in_executor(
                    None,
                    fleet.rolling_deploy,
                    FleetSpec(reversed_db, config, "deploy:reversed"),
                )
                body, meta = await fleet.submit(
                    "knn", signature, payload, min_epoch=epoch
                )
                new_oracle = _oracle_knn(reversed_db, query, 3)
                assert new_oracle != old_oracle  # the corpora disagree
                assert body["neighbors"] == new_oracle
                assert not meta["cached"]

            _run(go())
        finally:
            fleet.close()


@pytest.mark.process
class TestFleetStats:
    def test_fleet_totals_are_the_sum_of_replicas(
        self, fleet, fleet_database
    ):
        async def go():
            for index in range(8):
                signature, payload = _knn_payload(fleet_database, index, 3)
                await fleet.submit("knn", signature, payload)
            stats = await fleet.stats_async()
            per_replica = stats["per_replica"]
            assert len(per_replica) == 3
            total_queries = sum(
                entry["search"]["queries"]
                for entry in per_replica
                if "search" in entry
            )
            assert stats["fleet"]["search"]["queries"] == total_queries
            assert total_queries == 8
            window = sum(
                entry["latency"]["knn"]["window"]
                for entry in per_replica
                if "latency" in entry and "knn" in entry["latency"]
            )
            assert stats["fleet"]["latency"]["knn"]["window"] == window

        _run(go())


# ----------------------------------------------------------------------
# Integration: the replicated tier behind HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replicated_server(fleet_database):
    config = ServiceConfig(
        port=0, replicas=2, cache_size=16, pruners=SPEC, replica_retries=3
    )
    with ServerHandle.start(fleet_database, config) as handle:
        yield handle


@pytest.fixture(scope="module")
def single_server(fleet_database):
    config = ServiceConfig(
        port=0, replicas=1, cache_size=16, pruners=SPEC, replica_retries=3
    )
    with ServerHandle.start(fleet_database, config) as handle:
        yield handle


def _comparable(body):
    """A served body without its tier-specific meta and its timing."""
    body = {name: value for name, value in body.items() if name != "meta"}
    if "stats" in body:
        body["stats"] = {
            name: value
            for name, value in body["stats"].items()
            if name != "elapsed_seconds"
        }
    return body


@pytest.mark.process
class TestReplicatedHTTP:
    def test_served_knn_is_exact(self, replicated_server, fleet_database):
        with ServiceClient(
            replicated_server.host, replicated_server.port
        ) as client:
            for index in (0, 8, 21):
                served = client.knn(index, k=5)
                assert served["neighbors"] == _oracle_knn(
                    fleet_database, fleet_database.trajectories[index], 5
                )
                assert served["meta"]["epoch"] >= 1
            assert client.last_epoch >= 1

    def test_healthz_reports_the_fleet(self, replicated_server):
        with ServiceClient(
            replicated_server.host, replicated_server.port
        ) as client:
            health = client.healthz()
            assert health["replicas"]["count"] == 2
            assert health["replicas"]["alive"] == 2

    def test_stats_exposes_fleet_and_per_replica(self, replicated_server):
        with ServiceClient(
            replicated_server.host, replicated_server.port
        ) as client:
            client.knn(1, k=3)
            stats = client.stats()
            replicas = stats["replicas"]
            assert replicas["enabled"]
            assert len(replicas["per_replica"]) == 2
            assert stats["search"] == replicas["fleet"]["search"]

    @pytest.mark.parametrize(
        "route", ["/knn", "/subknn", "/range", "/distance"]
    )
    def test_one_and_two_replicas_serve_the_same_bodies(
        self, single_server, replicated_server, fleet_database, route
    ):
        """Both tiers run one engine: the same bodies but for meta."""
        inline = fleet_database.trajectories[9].points[::2].tolist()
        requests = {
            "/knn": [{"query": 4, "k": 5}, {"query": inline, "k": 3}],
            "/subknn": [
                {"query": 4, "k": 3},
                {"query": inline, "k": 2, "alpha": 0.5},
            ],
            "/range": [
                {"query": 4, "radius": 18.0},
                {"query": inline, "radius": 14.0},
            ],
            "/distance": [
                {"first": 4, "second": 17},
                {"first": inline, "second": 2, "function": "lcss"},
            ],
        }[route]
        bodies = []
        for server in (single_server, replicated_server):
            with ServiceClient(server.host, server.port) as client:
                bodies.append(
                    [
                        _comparable(client._request("POST", route, request))
                        for request in requests
                    ]
                )
        assert bodies[0] == bodies[1]
        assert all(bodies[0])

    def test_client_epoch_rides_through_a_deploy(
        self, replicated_server, fleet_database
    ):
        service = replicated_server.service
        with ServiceClient(
            replicated_server.host, replicated_server.port, retries=5
        ) as client:
            client.knn(2, k=3)
            first_epoch = client.last_epoch
            # Queries keep flowing while the deploy swaps replicas.
            stop = threading.Event()
            epochs, failures = [], []

            def churn():
                with ServiceClient(
                    replicated_server.host,
                    replicated_server.port,
                    retries=5,
                ) as worker:
                    while not stop.is_set():
                        try:
                            served = worker.knn(3, k=3)
                        except Exception as error:  # noqa: BLE001
                            failures.append(error)
                            return
                        epochs.append(served["meta"]["epoch"])

            thread = threading.Thread(target=churn)
            thread.start()
            try:
                new_epoch = service.deploy_database(
                    fleet_database, epoch_token="deploy:http"
                ).result(timeout=60)
            finally:
                stop.set()
                thread.join(30)
            assert new_epoch == first_epoch + 1
            assert not failures
            # Per-client epoch monotonicity: no answer regressed to an
            # older epoch after a newer one was observed.
            assert epochs == sorted(epochs)
            served = client.knn(2, k=3)
            assert served["meta"]["epoch"] == new_epoch
            assert served["neighbors"] == _oracle_knn(
                fleet_database, fleet_database.trajectories[2], 3
            )

    def test_retry_after_is_honoured_on_503(self, monkeypatch):
        """The client sleeps at least the server's Retry-After hint."""
        client = ServiceClient(retries=1, backoff_s=0.001)
        outcomes = iter(
            [
                ServiceError_503(retry_after=0.2),
                {"neighbors": [], "meta": {"epoch": 3}},
            ]
        )

        def fake_request_once(method, path, payload=None):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        sleeps = []
        monkeypatch.setattr(client, "_request_once", fake_request_once)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        response = client._request("POST", "/knn", {"query": 1})
        assert response["meta"]["epoch"] == 3
        assert sleeps and sleeps[0] >= 0.2


def ServiceError_503(retry_after):
    from repro.service import ServiceError

    return ServiceError(503, {"error": "shed"}, retry_after)


@pytest.mark.process
class TestDrain:
    def test_sigterm_drain_loses_no_inflight_query(self, fleet_database):
        """A query in flight when the drain begins still completes."""
        config = ServiceConfig(
            port=0, replicas=2, cache_size=16, pruners=SPEC
        )
        handle = ServerHandle.start(fleet_database, config)
        fleet = handle.service.fleet
        # Make the in-flight query observably slow (but well inside the
        # RPC deadline) so the drain window genuinely overlaps it.
        fleet._fault_plan = FaultPlan(
            [FaultRule("replica:rpc", "slow", count=1, delay_s=0.4)]
        )
        result = {}

        def fire():
            with ServiceClient(handle.host, handle.port) as client:
                result["response"] = client.knn(0, k=3)

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.15)  # the query is now inside the replica
        handle.stop()  # SIGTERM-equivalent graceful drain
        thread.join(30)
        assert "response" in result
        assert result["response"]["neighbors"] == _oracle_knn(
            fleet_database, fleet_database.trajectories[0], 3
        )
