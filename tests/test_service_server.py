"""Integration tests: the served API against an in-process HTTP server.

The acceptance bar for the service is exactness: ``/knn`` and ``/range``
responses must equal direct :func:`repro.knn_search` /
:func:`repro.range_search` calls byte for byte — same ids, same float
distances (JSON round-trips float64 exactly), same tie order.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import (
    Trajectory,
    TrajectoryDatabase,
    knn_search,
    range_search,
    subknn_search,
)
from repro.core.batch import warm_pruners
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.pruning import build_pruners

from .oracles import payload_windows


@pytest.fixture(scope="module")
def database(service_database):
    # The serving corpus is session-scoped in conftest.py (built once
    # per run); this alias keeps the test bodies unchanged.
    return service_database


@pytest.fixture(scope="module")
def server(database):
    config = ServiceConfig(port=0, max_batch=4, cache_size=32)
    with ServerHandle.start(database, config) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(server.host, server.port) as service_client:
        yield service_client


def _direct_knn(database, query, k, spec="histogram,qgram"):
    pruners = build_pruners(database, spec)
    warm_pruners(pruners, database.trajectories[0])
    neighbors, _ = knn_search(database, query, k, pruners)
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in neighbors
    ]


def _direct_range(database, query, radius, spec="histogram,qgram"):
    pruners = build_pruners(database, spec)
    warm_pruners(pruners, database.trajectories[0])
    results, _ = range_search(database, query, radius, pruners)
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in results
    ]


class TestExactness:
    def test_knn_equals_direct_search(self, database, client):
        for index in (0, 7, 23):
            query = database.trajectories[index]
            served = client.knn(query, k=5)
            assert served["neighbors"] == _direct_knn(database, query, 5)

    def test_knn_accepts_raw_point_lists(self, database, client):
        query = database.trajectories[3]
        served = client.knn(query.points.tolist(), k=4)
        assert served["neighbors"] == _direct_knn(database, query, 4)

    def test_knn_by_database_index(self, database, client):
        served = client.knn(11, k=3)
        assert served["neighbors"] == _direct_knn(
            database, database.trajectories[11], 3
        )

    def test_knn_with_novel_query(self, database, client):
        rng = np.random.default_rng(99)
        points = np.cumsum(rng.normal(size=(18, 2)), axis=0)
        served = client.knn(points, k=5)
        assert served["neighbors"] == _direct_knn(
            database, Trajectory(points), 5
        )

    def test_knn_alternate_pruner_spec(self, database, client):
        query = database.trajectories[9]
        served = client.knn(query, k=5, pruners="histogram")
        assert served["neighbors"] == _direct_knn(
            database, query, 5, spec="histogram"
        )

    def test_range_equals_direct_search(self, database, client):
        query = database.trajectories[5]
        served = client.range_query(query, 12.0)
        assert served["results"] == _direct_range(database, query, 12.0)

    def test_range_zero_radius_finds_the_query_itself(self, database, client):
        query = database.trajectories[8]
        served = client.range_query(query, 0.0)
        assert served["results"] == _direct_range(database, query, 0.0)
        assert any(hit["index"] == 8 for hit in served["results"])

    def test_distance_endpoint_matches_direct_edr(self, database, client):
        from repro.distances import edr

        served = client.distance(2, 14)
        expected = edr(
            database.trajectories[2],
            database.trajectories[14],
            database.epsilon,
        )
        assert served["distance"] == float(expected)
        assert served["function"] == "edr"
        assert served["epsilon"] == database.epsilon

    def test_concurrent_knn_requests_all_exact(self, database, server):
        indices = [1, 4, 4, 16, 28, 28, 28, 35]
        outcomes = [None] * len(indices)

        def fetch(position, index):
            with ServiceClient(server.host, server.port) as service_client:
                outcomes[position] = service_client.knn(index, k=3)

        threads = [
            threading.Thread(target=fetch, args=(position, index))
            for position, index in enumerate(indices)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, served in zip(indices, outcomes):
            assert served["neighbors"] == _direct_knn(
                database, database.trajectories[index], 3
            )


# ----------------------------------------------------------------------
# Dispatch when idle: a lone request never waits for a batch to fill,
# and duplicates of queued or computing queries compute once.
# ----------------------------------------------------------------------
@pytest.fixture()
def idle_server(database):
    config = ServiceConfig(port=0, max_batch=16, cache_size=0)
    with ServerHandle.start(database, config) as handle:
        yield handle


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestDispatchWhenIdle:
    def test_sequential_requests_dispatch_alone(self, database, idle_server):
        pruners = build_pruners(database, "histogram,qgram")
        warm_pruners(pruners, database.trajectories[0])
        with ServiceClient(idle_server.host, idle_server.port) as client:
            for index in (0, 7, 23):
                query = database.trajectories[index]
                knn = client.knn(query, k=5)
                assert knn["neighbors"] == _direct_knn(database, query, 5)
                subknn = client.subknn(query, k=3)
                want, _ = subknn_search(database, query, 3, pruners)
                assert subknn["matches"] == payload_windows(want)
                for body in (knn, subknn):
                    assert body["meta"]["batch_size"] == 1
                    assert body["meta"]["coalesced"] == 0
            batcher = client.stats()["batcher"]
        assert batcher["batches"] == 6
        assert batcher["max_batch_size"] == 1
        assert batcher["coalesced"] == 0

    def test_concurrent_duplicates_compute_once(
        self, database, idle_server, monkeypatch
    ):
        service = idle_server.service
        gate = threading.Event()
        batches = []
        by_points = {
            database.trajectories[index].points.tobytes(): index
            for index in (4, 9)
        }
        execute = service.engine.execute

        def gated_execute(op, payloads):
            batches.append(
                [
                    by_points[np.asarray(p["points"], dtype=float).tobytes()]
                    for p in payloads
                ]
            )
            gate.wait(timeout=30.0)
            return execute(op, payloads)

        monkeypatch.setattr(service.engine, "execute", gated_execute)
        indices = [4, 4, 4, 9, 9, 9]
        outcomes = [None] * len(indices)

        def fetch(position):
            with ServiceClient(idle_server.host, idle_server.port) as client:
                outcomes[position] = client.knn(indices[position], k=3)

        threads = [
            threading.Thread(target=fetch, args=(position,))
            for position in range(len(indices))
        ]
        try:
            threads[0].start()
            _wait_until(lambda: batches)  # the first 4 is computing
            for thread in threads[1:]:
                thread.start()
            _wait_until(
                lambda: service._inflight == len(indices)
                and service.batcher.pending == 1
            )
            time.sleep(0.05)  # let the last duplicates attach
        finally:
            gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        # Each distinct query computed once: the 4s attached to the
        # computing batch, the 9s queued behind it as one.
        assert batches == [[4], [9]]
        for index, body in zip(indices, outcomes):
            assert body["neighbors"] == _direct_knn(
                database, database.trajectories[index], 3
            )
            assert body["meta"] == outcomes[indices.index(index)]["meta"]
        assert outcomes[0]["meta"]["coalesced"] == 2
        assert outcomes[3]["meta"]["coalesced"] == 2
        with ServiceClient(idle_server.host, idle_server.port) as client:
            batcher = client.stats()["batcher"]
        assert batcher["requests"] == 6
        assert batcher["unique_computed"] == 2
        assert batcher["coalesced"] == 4


# ----------------------------------------------------------------------
# The served engine on ties: duplicated trajectories give groups of
# equal integer EDR distances, and k cuts through one of them.
# ----------------------------------------------------------------------
TIE_SPECS = ("histogram,qgram", "qgram,histogram", "nti,histogram", "none")
COPIES = 3


@pytest.fixture(scope="module")
def tie_database():
    rng = np.random.default_rng(2005)
    bases = [
        np.cumsum(rng.normal(size=(int(rng.integers(12, 20)), 2)), axis=0)
        for _ in range(10)
    ]
    return TrajectoryDatabase(
        [Trajectory(points) for points in bases for _ in range(COPIES)],
        epsilon=0.5,
    )


@pytest.fixture(scope="module")
def tie_queries(tie_database):
    """(query, k, brute-force (distance, index) order) triples whose
    k-th and (k+1)-th distances are equal."""
    from repro.distances import edr

    rng = np.random.default_rng(7)
    queries = [
        tie_database.trajectories[0],
        tie_database.trajectories[COPIES * 4],
        Trajectory(np.cumsum(rng.normal(size=(16, 2)), axis=0)),
    ]
    triples = []
    for query in queries:
        order = sorted(
            (float(edr(query, candidate, tie_database.epsilon)), index)
            for index, candidate in enumerate(tie_database.trajectories)
        )
        k = next(k for k in range(2, len(order)) if order[k - 1][0] == order[k][0])
        triples.append((query, k, order))
    return triples


def _tie_config(**overrides):
    return ServiceConfig(port=0, cache_size=0, max_batch=1, **overrides)


@pytest.fixture(scope="module")
def tie_server(tie_database):
    with ServerHandle.start(tie_database, _tie_config()) as handle:
        yield handle


def _direct(database, query, k, spec):
    """``knn_search``'s answer and counters, in its default bound order
    (an empty chain refines every candidate, as the served scan does)."""
    return knn_search(database, query, k, build_pruners(database, spec))


def _served_knn(handle, tie_queries, spec):
    with ServiceClient(handle.host, handle.port) as service_client:
        return [
            service_client.knn(query, k=k, pruners=spec)
            for query, k, _ in tie_queries
        ]


class TestServedTies:
    @pytest.mark.parametrize("spec", TIE_SPECS)
    def test_served_knn_is_direct_knn_search_with_sorted_counters(
        self, tie_database, tie_queries, tie_server, spec
    ):
        served = _served_knn(tie_server, tie_queries, spec)
        for (query, k, _), body in zip(tie_queries, served):
            neighbors, stats = _direct(tie_database, query, k, spec)
            assert body["neighbors"] == [
                {"index": int(n.index), "distance": float(n.distance)}
                for n in neighbors
            ]
            assert "engine" not in body["meta"]
            assert body["stats"]["true_distance_computations"] == (
                stats.true_distance_computations
            )
            assert body["stats"]["pruned_by"] == dict(stats.pruned_by)

    def test_k_cuts_a_tie_group_by_index(self, tie_queries, tie_server):
        # k cuts a group of equal distances, so the served answer is
        # right only if the group keeps its smallest indices.
        served = _served_knn(tie_server, tie_queries, "histogram,qgram")
        for (_, k, order), body in zip(tie_queries, served):
            assert [
                (n["distance"], n["index"]) for n in body["neighbors"]
            ] == order[:k]

    @pytest.mark.process
    def test_a_two_replica_fleet_answers_the_same(
        self, tie_database, tie_queries, tie_server
    ):
        with ServerHandle.start(tie_database, _tie_config(replicas=2)) as fleet:
            for spec in TIE_SPECS:
                want = _served_knn(tie_server, tie_queries, spec)
                got = _served_knn(fleet, tie_queries, spec)
                for served, fleet_body in zip(want, got):
                    assert fleet_body["neighbors"] == served["neighbors"]
                    for name in ("true_distance_computations", "pruned_by"):
                        assert fleet_body["stats"][name] == served["stats"][name]


class TestCaching:
    def test_repeat_query_is_served_from_cache(self, database, server):
        with ServiceClient(server.host, server.port) as service_client:
            rng = np.random.default_rng(123)
            points = np.cumsum(rng.normal(size=(15, 2)), axis=0)
            first = service_client.knn(points, k=2)
            second = service_client.knn(points, k=2)
        assert first["meta"]["cached"] is False
        assert second["meta"]["cached"] is True
        assert second["neighbors"] == first["neighbors"]

    def test_different_k_misses_the_cache(self, database, server):
        with ServiceClient(server.host, server.port) as service_client:
            rng = np.random.default_rng(124)
            points = np.cumsum(rng.normal(size=(15, 2)), axis=0)
            service_client.knn(points, k=2)
            other = service_client.knn(points, k=3)
        assert other["meta"]["cached"] is False
        assert len(other["neighbors"]) == 3


class TestIntrospection:
    def test_healthz(self, database, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["database_size"] == len(database)
        assert health["epsilon"] == database.epsilon

    def test_stats_shape(self, database, client):
        client.knn(0, k=2)
        stats = client.stats()
        assert stats["database"]["size"] == len(database)
        assert stats["requests"]["/knn"] >= 1
        assert stats["responses"]["200"] >= 1
        assert "/knn" in stats["latency"]
        assert stats["search"]["queries"] >= 1
        assert 0.0 <= stats["search"]["pruning_power"] <= 1.0
        assert stats["cache"]["capacity"] == 32
        assert "engine" not in stats["config"]
        assert stats["admission"]["queue_limit"] >= 1


class TestValidation:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/knn")
        assert excinfo.value.status == 405

    def test_missing_query_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/knn", {"k": 3})
        assert excinfo.value.status == 400
        assert "query" in str(excinfo.value)

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.base_url}/knn",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:  # the error holds the response socket
            assert error.code == 400
            assert "invalid JSON" in json.loads(error.read())["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"query": 0, "k": 0},
            {"query": 0, "k": "five"},
            {"query": 0, "k": True},
            {"query": -1, "k": 3},
            {"query": 10**9, "k": 3},
            {"query": [[0.0, 0.0]], "k": 3, "pruners": "bogus"},
            {"query": [], "k": 3},
            {"query": [[0.0, 1.0, 2.0]], "k": 3},
            {"query": [[float("nan")]], "k": 3},
            {"query": True, "k": 3},
        ],
    )
    def test_bad_knn_payloads_are_400(self, client, payload):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/knn", payload)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"query": 0},
            {"query": 0, "radius": -1.0},
            {"query": 0, "radius": float("inf")},
            {"query": 0, "radius": "big"},
        ],
    )
    def test_bad_range_payloads_are_400(self, client, payload):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/range", payload)
        assert excinfo.value.status == 400

    def test_unknown_distance_function_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/distance",
                {"first": 0, "second": 1, "function": "hausdorff"},
            )
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self, database):
        config = ServiceConfig(port=0, max_body_bytes=1024)
        with ServerHandle.start(database, config, warm=False) as handle:
            request = urllib.request.Request(
                f"{handle.base_url}/knn",
                data=b"x" * 2048,
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            with excinfo.value as error:  # the error holds the response socket
                assert error.code == 413


class TestAdmissionControl:
    def test_overload_returns_503_with_retry_after(self, database):
        config = ServiceConfig(
            port=0,
            queue_limit=1,
            max_batch=1,
            cache_size=0,
            retry_after_s=2.0,
        )
        with ServerHandle.start(database, config) as handle:
            rejections = []
            successes = []

            def fire(index):
                try:
                    with ServiceClient(handle.host, handle.port) as sc:
                        sc.knn(index, k=3)
                        successes.append(index)
                except ServiceError as error:
                    rejections.append(error)

            threads = [
                threading.Thread(target=fire, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert successes  # the admitted request(s) completed
            assert rejections  # the flood tripped admission control
            for error in rejections:
                assert error.status == 503
                assert error.retry_after == 2.0
            with ServiceClient(handle.host, handle.port) as sc:
                assert sc.stats()["rejected"] == len(rejections)

    def test_request_timeout_returns_504(self, database):
        config = ServiceConfig(
            port=0, request_timeout_s=0.001, max_batch=1, cache_size=0
        )
        with ServerHandle.start(database, config) as handle:
            with ServiceClient(handle.host, handle.port) as sc:
                with pytest.raises(ServiceError) as excinfo:
                    sc.knn(0, k=5)
                assert excinfo.value.status == 504


class TestLifecycle:
    def test_graceful_stop_completes_inflight_work(self, database):
        config = ServiceConfig(port=0, max_batch=4)
        handle = ServerHandle.start(database, config)
        outcomes = []

        def fire():
            with ServiceClient(handle.host, handle.port) as sc:
                outcomes.append(sc.knn(2, k=3))

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.05)  # request in flight (or batched) when stop begins
        handle.stop()
        thread.join(timeout=30)
        assert outcomes and outcomes[0]["neighbors"]
        assert not handle._thread.is_alive()

    def test_port_zero_binds_an_ephemeral_port(self, server):
        assert server.port > 0

    @pytest.mark.process
    def test_graceful_stop_completes_inflight_sharded_work(self, database):
        """SIGTERM with a sharded ``/knn`` in flight still answers exactly.

        The drain path must wait for the sharded round engine (worker
        pools and all), not just the thread-pool dispatch, and the
        drained answer must equal the direct serial search.
        """
        config = ServiceConfig(port=0, shards=2, max_batch=1, cache_size=0)
        handle = ServerHandle.start(database, config)
        outcomes = []

        def fire():
            with ServiceClient(handle.host, handle.port) as sc:
                outcomes.append(sc.knn(2, k=3))

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.05)  # request in flight when the stop begins
        handle.stop()
        thread.join(timeout=30)
        assert outcomes
        assert outcomes[0]["neighbors"] == _direct_knn(
            database, database.trajectories[2], 3
        )
        assert not handle._thread.is_alive()


class TestClientRetry:
    """Request-level retry/backoff of ``ServiceClient`` against a flaky
    fake transport (no real sockets involved)."""

    def _client(self, monkeypatch, *, outcomes, retries, backoff_s=0.01):
        """A client whose ``_request_once`` pops scripted outcomes and
        whose backoff sleeps are recorded instead of slept."""
        client = ServiceClient("127.0.0.1", 1, retries=retries,
                              backoff_s=backoff_s)
        calls = []
        sleeps = []

        def fake_request_once(method, path, payload=None):
            calls.append((method, path))
            outcome = outcomes.pop(0)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_request_once", fake_request_once)
        import repro.service.client as client_module

        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: sleeps.append(s)
        )
        return client, calls, sleeps

    def test_transient_errors_are_retried_until_success(self, monkeypatch):
        client, calls, sleeps = self._client(
            monkeypatch,
            outcomes=[
                ConnectionRefusedError("down"),
                ConnectionResetError("dropped"),
                {"neighbors": [1]},
            ],
            retries=2,
        )
        assert client.healthz() == {"neighbors": [1]}
        assert len(calls) == 3
        assert sleeps == [0.01, 0.02]  # exponential from backoff_s
        assert client._connection is None  # transport was reset between tries

    def test_503_retries_honour_retry_after_hint(self, monkeypatch):
        client, calls, sleeps = self._client(
            monkeypatch,
            outcomes=[
                ServiceError(503, {"error": "busy"}, retry_after=0.5),
                {"ok": True},
            ],
            retries=1,
        )
        assert client.stats() == {"ok": True}
        assert len(calls) == 2
        assert sleeps == [0.5]  # the hint wins over the smaller backoff

    def test_backoff_is_capped(self, monkeypatch):
        client, _, sleeps = self._client(
            monkeypatch,
            outcomes=[
                ServiceError(503, {"error": "busy"}, retry_after=60.0),
                {"ok": True},
            ],
            retries=1,
        )
        client.stats()
        assert sleeps == [client.backoff_cap_s]

    def test_default_zero_retries_raises_immediately(self, monkeypatch):
        client, calls, sleeps = self._client(
            monkeypatch,
            outcomes=[ConnectionRefusedError("down")],
            retries=0,
        )
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(calls) == 1
        assert sleeps == []

    def test_retry_budget_exhaustion_raises_the_last_error(self, monkeypatch):
        client, calls, _ = self._client(
            monkeypatch,
            outcomes=[
                ServiceError(503, {"error": "busy"}),
                ServiceError(503, {"error": "busy"}),
            ],
            retries=1,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 503
        assert len(calls) == 2

    def test_non_transient_statuses_never_retry(self, monkeypatch):
        client, calls, sleeps = self._client(
            monkeypatch,
            outcomes=[ServiceError(400, {"error": "bad k"})],
            retries=5,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.knn(0, k=0)
        assert excinfo.value.status == 400
        assert len(calls) == 1
        assert sleeps == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(retries=-1)
