"""Request handling for the trajectory query service.

:class:`QueryEngine` is the one request executor of the service: over
one database generation it owns the warmed pruner chains, the optional
resident shard engine, one runner per query route and the payload
encoders.  :class:`TrajectoryService` is the transport-independent core
of the server around it: the micro-batcher, the result cache, the
metrics registry, admission control, and the single dispatch executor
the engine runs on.  With ``replicas > 1`` every replica process runs
its own :class:`QueryEngine` (:mod:`repro.service.replicas`), so served
bytes are the same whichever tier answers.  The HTTP layer
(:mod:`repro.service.server`) parses requests off the wire and hands
``(method, path, body)`` to :meth:`TrajectoryService.handle`, which
returns ``(status, payload, extra_headers)``.

Endpoints
---------
``GET /healthz``
    Liveness: status, uptime, database size, drain state.
``GET /stats``
    Metrics snapshot: request/latency/batcher/cache counters plus the
    aggregated :class:`repro.SearchStats` pruning counters, and the
    serving configuration.
``POST /knn``
    ``{"query": [[x, y], ...] | index, "k": 10, "pruners": "..."}`` —
    exact k-NN under EDR, answered through the micro-batched
    :func:`repro.knn_batch` path.  Responses are exactly (ids,
    distances, tie order) what :func:`repro.knn_search` returns for the
    same parameters.
``POST /subknn``
    ``{"query": ..., "k": 10, "alpha": 0.25, "pruners": "..."}`` — exact
    top-k subtrajectory search: each hit is the best banded window of a
    corpus trajectory (``[start, end)`` plus its EDR), answered through
    the same cached, micro-batched, replica-routable path as ``/knn``
    via :func:`repro.subknn_search`.
``POST /range``
    ``{"query": ..., "radius": r, "pruners": "..."}`` — exact range
    query via :func:`repro.range_search`.
``POST /distance``
    ``{"first": ..., "second": ..., "function": "edr"}`` — one direct
    distance computation between two trajectories (database indices or
    inline point lists).

Concurrency model
-----------------
The event loop validates, consults the cache, and applies admission
control; all numeric work runs on one dispatch worker thread, so batches
execute in arrival order and the GIL-released numpy kernels inside a
batch are the unit of compute.  Admission control bounds the number of
admitted-but-unfinished requests at ``queue_limit``; excess requests get
an immediate 503 with a ``Retry-After`` header.  Each admitted request
waits at most ``request_timeout_s`` (504 on expiry; the shared batch
computation itself is never interrupted — a coalesced neighbour may
still be served by it).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import BatchResult, knn_batch, warm_pruners
from ..core.database import TrajectoryDatabase
from ..core.kernels import kernel_report
from ..core.rangequery import range_search
from ..core.search import Neighbor, Pruner, SearchStats
from ..core.sharding import ShardedDatabase
from ..core.subtrajectory import DEFAULT_WINDOW_ALPHA, WindowMatch
from ..core.trajectory import Trajectory
from ..distances.base import EPSILON_FUNCTIONS, available_distances, get_distance
from .batcher import MicroBatcher
from .cache import ResultCache, query_digest
from .config import ServiceConfig
from .metrics import MetricsRegistry
from .pruning import build_pruners, canonical_pruner_spec
from .replicas import FleetRejection, FleetSpec, ReplicaFleet

__all__ = ["QueryEngine", "TrajectoryService", "RequestError"]

JSON_HEADERS = {"Content-Type": "application/json"}

#: Query route -> engine op.
_QUERY_OPS = {
    "/knn": "knn",
    "/subknn": "subknn",
    "/range": "range",
    "/distance": "distance",
}


class RequestError(Exception):
    """A client-visible error: HTTP status, message, optional headers."""

    def __init__(
        self, status: int, message: str, headers: Optional[dict] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class QueryEngine:
    """The request executor: exact filter-and-refine answers as payloads.

    One engine serves one database generation.  It builds each pruner
    chain once, holds the resident :class:`ShardedDatabase` when the
    service shards, and decides per query whether the shard engine
    answers (answers are the same either way).  Every runner returns the
    wire payload and tallies its :class:`SearchStats` into ``metrics``.
    A new generation gets a new engine; its owner calls it from a single
    thread.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        config: ServiceConfig,
        metrics: MetricsRegistry,
        sharded: Optional[ShardedDatabase] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.metrics = metrics
        self.sharded = sharded
        self._chains: Dict[str, List[Pruner]] = {}

    def chain(self, spec: str) -> List[Pruner]:
        """The built, warmed pruner chain for a canonical spec (cached)."""
        chain = self._chains.get(spec)
        if chain is None:
            chain = build_pruners(
                self.database, spec, matrix_workers=self.config.matrix_workers
            )
            warm_pruners(chain, self.database.trajectories[0])
            self._chains[spec] = chain
        return chain

    def attach_shards(self, tiered=None) -> None:
        """Start the resident shard engine over ``config.shards`` partitions.

        Over a tiered store the shard workers map the store's own files
        instead of packing artifact copies into shared memory.
        """
        refine = self.config.refine_batch_size
        kwargs = {} if refine is None else {"refine_batch_size": refine}
        build = (
            tiered.sharded
            if tiered is not None
            else partial(ShardedDatabase, self.database)
        )
        self.sharded = build(
            self.config.shards,
            specs=[canonical_pruner_spec(self.config.pruners)],
            mode="process",
            workers=self.config.shard_workers,
            **kwargs,
        )

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    # -- runners -------------------------------------------------------
    def knn(
        self, queries: Sequence[Trajectory], k: int, spec: str
    ) -> List[dict]:
        return [
            {
                "neighbors": _neighbors_payload(neighbors),
                "stats": _stats_payload(stats),
            }
            for neighbors, stats in self._batch(queries, k, spec)
        ]

    def subknn(
        self, queries: Sequence[Trajectory], k: int, alpha: float, spec: str
    ) -> List[dict]:
        return [
            {
                "matches": _windows_payload(matches),
                "stats": _stats_payload(stats),
            }
            for matches, stats in self._batch(
                queries, k, spec, sub=True, alpha=alpha
            )
        ]

    def range(self, query: Trajectory, radius: float, spec: str) -> dict:
        results, stats = range_search(
            self.database,
            query,
            radius,
            self.chain(spec),
            early_abandon=self.config.early_abandon,
            refine_batch_size=self.config.refine_batch_size,
        )
        self.metrics.record_search_stats([stats])
        return {
            "results": _neighbors_payload(results),
            "stats": _stats_payload(stats),
        }

    @staticmethod
    def distance(
        first: Trajectory,
        second: Trajectory,
        function: str,
        epsilon: Optional[float],
    ) -> dict:
        measure = get_distance(function)
        if epsilon is None:
            return {"distance": float(measure(first, second)), "function": function}
        value = float(measure(first, second, epsilon))
        return {"distance": value, "function": function, "epsilon": epsilon}

    def execute(self, op: str, payloads: Sequence[dict]) -> List[dict]:
        """Answer wire payloads of one op (point fields as lists or arrays).

        k-NN and subknn payloads must share every field but ``points``:
        they run as one batch.
        """
        if op in ("knn", "subknn"):
            params = dict(payloads[0])
            del params["points"]
            queries = [Trajectory(payload["points"]) for payload in payloads]
            return getattr(self, op)(queries, **params)
        if op == "range":
            return [
                self.range(Trajectory(p["points"]), p["radius"], p["spec"])
                for p in payloads
            ]
        if op == "distance":
            return [
                self.distance(
                    Trajectory(p["first"]),
                    Trajectory(p["second"]),
                    p["function"],
                    p.get("epsilon"),
                )
                for p in payloads
            ]
        raise ValueError(f"unknown query op {op!r}")

    def _batch(
        self, queries: Sequence[Trajectory], k: int, spec: str, **window
    ) -> BatchResult:
        """One ``knn_batch`` call (``window``: subknn's ``sub``, ``alpha``)."""
        pruners = self.chain(spec)
        sharded = self.sharded
        # Window mode runs partition-parallel whenever the coordinator
        # can price the spec's bounds; whole trajectories also need a
        # non-empty chain (an empty one is a scan).
        if (
            sharded is not None
            and (window or pruners)
            and sharded.supports(spec)
        ):
            window["sharded"] = sharded
        batch = knn_batch(
            self.database,
            queries,
            k,
            pruners,
            early_abandon=self.config.early_abandon,
            refine_batch_size=self.config.refine_batch_size,
            **window,
        )
        self.metrics.record_search_stats(
            batch.stats, seconds=batch.elapsed_seconds
        )
        return batch


class TrajectoryService:
    """The resident query service around one warmed database."""

    def __init__(
        self,
        database: Optional[TrajectoryDatabase],
        config: ServiceConfig,
    ) -> None:
        self.config = config.validated()
        self._tiered = None
        self._ingest = None
        self._mutable = None
        if self.config.store is not None:
            if database is not None:
                raise ValueError(
                    "pass either a database or config.store, not both"
                )
            from ..storage.tiered import TieredDatabase

            self._tiered = TieredDatabase.open(
                self.config.store, pool_pages=self.config.store_pool_pages
            )
            database = self._tiered.database
        elif self.config.ingest_root is not None:
            if database is not None:
                raise ValueError(
                    "pass either a database or config.ingest_root, not both"
                )
            from ..ingest import IngestRoot

            self._ingest = IngestRoot(self.config.ingest_root)
            # Reader role: the service must never repair the WAL or
            # prune "orphan" directories — a concurrent mutator's
            # in-flight append / mid-build generation looks identical
            # to crash debris.
            self._mutable = self._ingest.open_mutable(
                pool_pages=self.config.store_pool_pages, repair=False
            )
            database = self._mutable.view()
        elif database is None:
            raise ValueError("a database (or config.store) is required")
        # Epoch token: part of every result-cache key, so a hot swap can
        # never serve a pre-swap answer even if a stale entry survived
        # the flush.  Static corpora keep a constant token.
        self._epoch_token = (
            self._mutable.token if self._mutable is not None else "static:0"
        )
        self._disk_token = (
            self._ingest.state_token() if self._ingest is not None else None
        )
        self._swap_pending = False
        self._swaps = 0
        self._swap_failures = 0
        self._swap_fault_plan = None  # chaos-suite hook (swap:attach)
        self.metrics = MetricsRegistry(config.latency_window)
        # The engine of the generation being served.  Only the dispatch
        # thread replaces it, so every query runs wholly on one engine.
        self.engine = QueryEngine(database, self.config, self.metrics)
        self.cache = ResultCache(config.cache_size)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch"
        )
        self.batcher = MicroBatcher(
            max_batch=config.max_batch,
            executor=self._executor,
            on_batch=self.metrics.record_batch,
        )
        self._fleet: Optional[ReplicaFleet] = None  # when config.replicas > 1
        self._inflight = 0
        self._draining = False

    @property
    def database(self) -> TrajectoryDatabase:
        """The database generation being served."""
        return self.engine.database

    # ------------------------------------------------------------------
    # Warm-up and lifecycle
    # ------------------------------------------------------------------
    def warm(self) -> Dict[str, float]:
        """Build every index the default configuration will use, up front.

        Returns the per-artifact build-seconds report of
        :meth:`repro.TrajectoryDatabase.warm` so callers (the ``serve``
        command logs it) can see what startup paid for.
        """
        start = time.perf_counter()
        report = self._warm_database(self.database)
        self.engine.chain(canonical_pruner_spec(self.config.pruners))
        report["pruner_chain"] = time.perf_counter() - start - sum(report.values())
        if (
            self.config.shards > 1
            and self.engine.sharded is None
            # In fleet mode each replica runs its own sharded engine;
            # the parent never computes, so it keeps no shard pool.
            and self.config.replicas == 1
        ):
            shard_start = time.perf_counter()
            self.engine.attach_shards(self._tiered)
            report["sharding"] = time.perf_counter() - shard_start
        if self.config.replicas > 1 and self._fleet is None:
            fleet_start = time.perf_counter()
            self._fleet = ReplicaFleet(
                FleetSpec(self.database, self.config, self._epoch_token)
            )
            self._fleet.start()
            report["replicas"] = time.perf_counter() - fleet_start
        return report

    def _warm_database(self, database: TrajectoryDatabase) -> Dict[str, float]:
        """Build the artifacts the configured pruner chain needs.

        Shared by startup warm-up and fleet deploys: a new generation is
        warmed once in the parent so every replica forks the built
        artifacts copy-on-write.
        """
        spec = canonical_pruner_spec(self.config.pruners)
        return database.warm(
            q=1 if "qgram" in spec else None,
            histogram_bins=1.0 if "histogram" in spec else None,
            per_axis="histogram-1d" in spec,
            references=50 if "nti" in spec else 0,
            workers=self.config.matrix_workers,
        )

    @property
    def fleet(self) -> Optional[ReplicaFleet]:
        """The replica fleet, when serving with ``replicas > 1``."""
        return self._fleet

    # ------------------------------------------------------------------
    # New generations: ingest hot swap and fleet deploys
    # ------------------------------------------------------------------
    def reload_if_changed(self):
        """Schedule a hot swap if the ingest root changed on disk.

        Called from the event loop (the ``--follow`` poller) or directly
        from tests.  The swap itself runs on the single dispatch worker,
        so it is serialized with every batch and range computation: a
        query executes wholly against the pre-swap state or wholly
        against the post-swap state, never a mix.  Returns the swap
        future, or ``None`` when nothing changed (or not serving an
        ingest root).
        """
        if self._ingest is None or self._swap_pending:
            return None
        if self._ingest.state_token() == self._disk_token:
            return None
        self._swap_pending = True
        return self._executor.submit(self._hot_swap)

    def _hot_swap(self) -> bool:
        """Dispatch-thread body: attach the new generation atomically."""
        try:
            token = self._ingest.state_token()
            if self._swap_fault_plan is not None:
                from ..core import faults as _faults

                _faults.apply(
                    self._swap_fault_plan.directives("swap:attach", 0),
                    inline=True,
                )
            mutable = self._ingest.open_mutable(
                pool_pages=self.config.store_pool_pages, repair=False
            )
            view = mutable.view()
            if self._fleet is not None:
                # Fleet mode: a generation change is a rolling deploy —
                # the fleet swaps replicas one at a time onto the new
                # view, so capacity never dips and epochs fence
                # per-client answers.
                self._deploy(FleetSpec(view, self.config, mutable.token))
            else:
                engine = QueryEngine(view, self.config, self.metrics)
                engine.chain(canonical_pruner_spec(self.config.pruners))
                if self.config.shards > 1:
                    engine.attach_shards()
                self._publish(engine, mutable.token)
        except Exception:
            self._swap_failures += 1
            self._swap_pending = False
            raise
        old_mutable, self._mutable = self._mutable, mutable
        self._disk_token = token
        self._swaps += 1
        self._swap_pending = False
        old_mutable.close()
        return True

    def deploy_database(self, database: TrajectoryDatabase, epoch_token=None):
        """Roll the fleet onto a new corpus (fleet mode only).

        Returns the dispatch-executor future; ``.result()`` is the new
        fleet epoch.  The old corpus keeps serving until each slot's
        replacement is ready, exactly like an ingest-driven deploy.
        """
        if self._fleet is None:
            raise RuntimeError("deploy_database requires replicas > 1")
        token = (
            epoch_token
            if epoch_token is not None
            else f"deploy:{self._fleet.epoch + 1}"
        )
        return self._executor.submit(
            self._deploy, FleetSpec(database, self.config, token)
        )

    def _deploy(self, spec: FleetSpec) -> int:
        """Dispatch-thread body: roll the fleet onto ``spec``, then publish it.

        The database is warmed here, once, so every replica forks the
        built artifacts copy-on-write.
        """
        self._warm_database(spec.database)
        self._fleet.rolling_deploy(spec)
        self._publish(
            QueryEngine(spec.database, self.config, self.metrics),
            spec.epoch_token,
        )
        return self._fleet.epoch

    def _publish(self, engine: QueryEngine, epoch_token: str) -> None:
        """Serve a new generation: swap in its engine, rekey, close the old.

        Plain assignments on the only thread that computes, so the swap
        is atomic with respect to every query.
        """
        old, self.engine = self.engine, engine
        self._epoch_token = epoch_token
        self.cache.clear()  # stale pre-swap answers must not survive
        old.close()

    def begin_drain(self) -> None:
        """Stop admitting compute requests (healthz/stats keep answering)."""
        self._draining = True

    async def drain(self) -> bool:
        """Flush pending batches and wait out in-flight work (bounded)."""
        deadline = time.monotonic() + self.config.drain_timeout_s
        completed = await self.batcher.drain(timeout=self.config.drain_timeout_s)
        if self._fleet is not None:
            # Every admitted request must come back from its replica
            # before the fleet is reaped: drain each backlog too.
            completed = (
                await self._fleet.drain(self.config.drain_timeout_s)
                and completed
            )
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        return completed and self._inflight == 0

    def close(self) -> None:
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None
        self._executor.shutdown(wait=False)
        self.engine.close()
        if self._tiered is not None:
            self._tiered.close()
            self._tiered = None
        if self._mutable is not None:
            self._mutable.close()
            self._mutable = None

    # ------------------------------------------------------------------
    # HTTP-facing entry point
    # ------------------------------------------------------------------
    async def handle(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict, dict]:
        route = path.split("?", 1)[0]
        start = time.perf_counter()
        self.metrics.record_request(route)
        try:
            status, payload, headers = await self._dispatch(method, route, body)
        except RequestError as error:
            status, payload, headers = (
                error.status,
                {"error": error.message},
                error.headers,
            )
        except asyncio.TimeoutError:
            status, payload, headers = (
                504,
                {"error": "request timed out"},
                {},
            )
        except Exception as error:  # noqa: BLE001 - last-resort 500
            status, payload, headers = (
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
                {},
            )
        self.metrics.record_response(route, status, time.perf_counter() - start)
        return status, payload, headers

    async def _dispatch(
        self, method: str, route: str, body: bytes
    ) -> Tuple[int, dict, dict]:
        if route == "/healthz":
            self._require_method(method, "GET")
            return 200, self._healthz(), {}
        if route == "/stats":
            self._require_method(method, "GET")
            payload = self._stats()
            if self._fleet is not None:
                fleet_section = await self._fleet.stats_async()
                payload["replicas"] = fleet_section
                # The fleet's engine-side totals are the service's
                # search stats — the router itself computes nothing.
                payload["search"] = fleet_section["fleet"]["search"]
            return 200, payload, {}
        op = _QUERY_OPS.get(route)
        if op is None:
            raise RequestError(404, f"unknown path {route!r}")
        self._require_method(method, "POST")
        return 200, await self._query(op, self._json_body(body)), {}

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        sharded = self.engine.sharded
        degraded = sharded is not None and sharded.degraded
        fleet_snapshot = (
            self._fleet.snapshot() if self._fleet is not None else None
        )
        if fleet_snapshot is not None:
            degraded = degraded or (
                fleet_snapshot["alive"] < fleet_snapshot["count"]
            )
        if self._draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "uptime_seconds": round(self.metrics.uptime_seconds, 3),
            "database_size": len(self.database),
            "epsilon": self.database.epsilon,
        }
        if self._ingest is not None:
            payload["ingest"] = {
                "generation": self._mutable.generation,
                "epoch": self._epoch_token,
                "delta_size": self._mutable.delta_size,
                "swaps": self._swaps,
                "swap_failures": self._swap_failures,
            }
        if fleet_snapshot is not None:
            payload["replicas"] = {
                "count": fleet_snapshot["count"],
                "alive": fleet_snapshot["alive"],
                "epoch": fleet_snapshot["epoch"],
            }
        if sharded is not None:
            payload["sharding"] = {
                "degraded": degraded,
                "degraded_queries": sharded.resilience()["degraded_queries"],
            }
            if degraded and not self._draining:
                # Probe/revive off the event loop: the single dispatch
                # executor serializes the health check with searches, and
                # a successful check clears the degraded flag so the next
                # /healthz reports recovery.
                self._executor.submit(sharded.health_check)
        return payload

    def _stats(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.snapshot()
        snapshot["admission"] = {
            "queue_limit": self.config.queue_limit,
            "inflight": self._inflight,
            "pending_batched": self.batcher.pending,
            "outstanding_batches": self.batcher.outstanding,
            "draining": self._draining,
        }
        snapshot["database"] = {
            "size": len(self.database),
            "epsilon": self.database.epsilon,
            "ndim": self.database.ndim,
            "max_length": self.database.max_length,
        }
        snapshot["config"] = self.config.public()
        snapshot["kernels"] = kernel_report()
        snapshot.setdefault("replicas", {})["enabled"] = (
            self._fleet is not None
        )
        sharded = self.engine.sharded
        sharding = snapshot.setdefault("sharding", {})
        sharding["enabled"] = sharded is not None
        if sharded is not None:
            sharding["shards"] = sharded.shards
            sharding["workers"] = sharded.workers
            sharding["mode"] = sharded.mode
            sharding["start_method"] = sharded.start_method
            sharding["boundaries"] = sharded.boundaries
            sharding["resilience"] = sharded.resilience()
        storage = snapshot.setdefault("storage", {})
        storage["enabled"] = self._tiered is not None
        if self._tiered is not None:
            storage.update(self._tiered.storage_stats())
        ingest = snapshot.setdefault("ingest", {})
        ingest["enabled"] = self._ingest is not None
        if self._ingest is not None:
            ingest.update(
                {
                    "root": str(self._ingest.root),
                    "generation": self._mutable.generation,
                    "epoch_token": self._epoch_token,
                    "applied_seq": self._mutable.applied_seq,
                    "delta_size": self._mutable.delta_size,
                    "swaps": self._swaps,
                    "swap_failures": self._swap_failures,
                    "follow": self.config.follow,
                }
            )
        return snapshot

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    async def _query(self, op: str, request: dict) -> dict:
        """Answer one query request: through the fleet, or on the engine.

        Locally, ``/knn`` and ``/subknn`` share the cached, micro-batched
        path: dispatched at once when the batcher is idle, batched with
        whatever queued while it was busy, and coalesced onto a queued or
        computing duplicate.  ``/range`` is cached and runs alone, and
        ``/distance`` is one direct computation with neither.
        """
        signature, payload = self._parse(op, request)
        if self._fleet is not None:
            result, meta = await self._admitted(
                partial(
                    self._fleet.submit,
                    op,
                    signature,
                    payload,
                    min_epoch=self._min_epoch(request),
                )
            )
            return {**result, "meta": meta}
        if op == "distance":
            (result,) = await self._admitted(
                partial(self._on_dispatch, op, [payload])
            )
            return result
        cache_key = (self._epoch_token,) + signature
        cached = self.cache.get(cache_key)
        if cached is not None:
            return {**cached, "meta": {"cached": True}}
        if op == "range":
            (result,) = await self._admitted(
                partial(self._on_dispatch, op, [payload])
            )
            meta = {"cached": False}
        else:
            result, batch = await self._admitted(
                partial(
                    self.batcher.submit,
                    # Every answer-shaping parameter but the query.
                    key=signature[:1] + signature[2:],
                    digest=cache_key,
                    payload=payload,
                    runner=partial(self._execute, op),
                )
            )
            meta = {
                "cached": False,
                "batch_size": batch["batch_size"],
                "coalesced": batch["coalesced"],
            }
        self.cache.put(cache_key, result)
        return {**result, "meta": meta}

    def _execute(self, op: str, payloads: Sequence[dict]) -> List[dict]:
        """Dispatch-thread body: the engine being served answers."""
        return self.engine.execute(op, payloads)

    def _on_dispatch(self, op: str, payloads: Sequence[dict]) -> asyncio.Future:
        return asyncio.get_running_loop().run_in_executor(
            self._executor, self._execute, op, payloads
        )

    def _min_epoch(self, request: dict) -> int:
        value = request.get("min_epoch", 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise RequestError(400, "min_epoch must be a non-negative integer")
        return value

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _admitted(self, start: Callable[[], object]):
        """Await ``start()`` under admission control and the deadline.

        ``start`` is called only once the request is admitted, so a
        refused request never creates work.
        """
        retry_after = str(max(1, math.ceil(self.config.retry_after_s)))
        sharded = self.engine.sharded
        if self._draining:
            raise RequestError(
                503, "server is draining", {"Retry-After": retry_after}
            )
        if (
            self.config.reject_on_degraded
            and sharded is not None
            and sharded.degraded
        ):
            raise RequestError(
                503,
                "sharded engine is degraded (serial fallback active)",
                {"Retry-After": retry_after},
            )
        if self._inflight >= self.config.queue_limit:
            raise RequestError(
                503,
                f"server overloaded ({self._inflight} requests in flight)",
                {"Retry-After": retry_after},
            )
        self._inflight += 1
        try:
            return await asyncio.wait_for(
                start(), timeout=self.config.request_timeout_s
            )
        except FleetRejection as rejection:
            raise RequestError(
                503, rejection.message, {"Retry-After": retry_after}
            ) from None
        finally:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise RequestError(405, f"method {method} not allowed (use {expected})")

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise RequestError(400, "request body must be a JSON object")
        try:
            request = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, f"invalid JSON body: {error}") from None
        if not isinstance(request, dict):
            raise RequestError(400, "request body must be a JSON object")
        return request

    def _parse(self, op: str, request: dict) -> Tuple[Tuple, dict]:
        """Validate one query request into ``(signature, payload)``.

        The signature is the query digest plus every answer-shaping
        parameter: it routes the request across the fleet and, behind
        the epoch token, keys the result cache.  The payload is what
        :meth:`QueryEngine.execute` answers.
        """
        config = self.config
        refine = (config.early_abandon, config.refine_batch_size)
        if op == "distance":
            return self._parse_distance(request)
        query = self._trajectory(request, "query")
        digest = query_digest(query.points)
        if op == "range":
            radius = self._radius(request)
            spec = self._spec(request)
            payload = {"points": query.points, "radius": radius, "spec": spec}
            return (op, digest, radius, spec) + refine, payload
        k = self._positive_int(request.get("k", config.k_default), "k")
        spec = self._spec(request)
        if op == "knn":
            payload = {"points": query.points, "k": k, "spec": spec}
            return (op, digest, k, spec) + refine, payload
        alpha = self._alpha(request)
        payload = {"points": query.points, "k": k, "alpha": alpha, "spec": spec}
        return (op, digest, k, alpha, spec) + refine, payload

    def _parse_distance(self, request: dict) -> Tuple[Tuple, dict]:
        first = self._trajectory(request, "first")
        second = self._trajectory(request, "second")
        name = str(request.get("function", "edr")).lower()
        if name not in available_distances():
            raise RequestError(
                400,
                f"unknown distance function {name!r}; "
                f"known: {', '.join(available_distances())}",
            )
        epsilon: Optional[float] = None
        if name in EPSILON_FUNCTIONS:
            raw = request.get("epsilon", self.database.epsilon)
            try:
                epsilon = float(raw)
            except (TypeError, ValueError):
                raise RequestError(400, "epsilon must be a number") from None
            if epsilon < 0.0 or not math.isfinite(epsilon):
                raise RequestError(400, "epsilon must be non-negative and finite")
        signature = (
            "distance",
            query_digest(first.points),
            query_digest(second.points),
            name,
            epsilon,
        )
        payload = {
            "first": first.points,
            "second": second.points,
            "function": name,
            "epsilon": epsilon,
        }
        return signature, payload

    def _trajectory(self, request: dict, field: str) -> Trajectory:
        value = request.get(field)
        if value is None:
            raise RequestError(400, f"missing required field {field!r}")
        if isinstance(value, bool):
            raise RequestError(400, f"{field} must be an index or a point list")
        if isinstance(value, int):
            if not 0 <= value < len(self.database):
                raise RequestError(
                    400,
                    f"{field} index {value} out of range "
                    f"[0, {len(self.database)})",
                )
            return self.database.trajectories[value]
        try:
            points = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise RequestError(
                400, f"{field} must be a database index or a list of points"
            ) from None
        if points.ndim != 2 or points.shape[0] < 1:
            raise RequestError(
                400, f"{field} must be a non-empty list of points"
            )
        if points.shape[1] != self.database.ndim:
            raise RequestError(
                400,
                f"{field} arity {points.shape[1]} does not match "
                f"database arity {self.database.ndim}",
            )
        if not np.isfinite(points).all():
            raise RequestError(400, f"{field} contains non-finite coordinates")
        return Trajectory(points)

    def _spec(self, request: dict) -> str:
        raw = request.get("pruners", self.config.pruners)
        if not isinstance(raw, str):
            raise RequestError(400, "pruners must be a comma-separated string")
        try:
            return canonical_pruner_spec(raw)
        except ValueError as error:
            raise RequestError(400, str(error)) from None

    @staticmethod
    def _positive_int(value: object, field: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise RequestError(400, f"{field} must be a positive integer")
        if value < 1:
            raise RequestError(400, f"{field} must be at least 1")
        return value

    @staticmethod
    def _alpha(request: dict) -> float:
        value = request.get("alpha", DEFAULT_WINDOW_ALPHA)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(400, "alpha must be a number")
        alpha = float(value)
        if alpha < 0.0 or not math.isfinite(alpha):
            raise RequestError(400, "alpha must be non-negative and finite")
        return alpha

    def _radius(self, request: dict) -> float:
        value = request.get("radius")
        if value is None:
            raise RequestError(400, "missing required field 'radius'")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(400, "radius must be a number")
        radius = float(value)
        if radius < 0.0 or not math.isfinite(radius):
            raise RequestError(400, "radius must be non-negative and finite")
        return radius


# ----------------------------------------------------------------------
# Payload shaping
# ----------------------------------------------------------------------
def _neighbors_payload(neighbors: Sequence[Neighbor]) -> List[dict]:
    return [
        {"index": int(neighbor.index), "distance": float(neighbor.distance)}
        for neighbor in neighbors
    ]


def _windows_payload(matches: Sequence[WindowMatch]) -> List[dict]:
    return [
        {
            "index": int(match.index),
            "start": int(match.start),
            "end": int(match.end),
            "distance": float(match.distance),
        }
        for match in matches
    ]


def _stats_payload(stats: SearchStats) -> dict:
    payload = {
        "database_size": stats.database_size,
        "true_distance_computations": stats.true_distance_computations,
        "pruning_power": round(stats.pruning_power, 6),
        "pruned_by": dict(stats.pruned_by),
        "elapsed_seconds": round(stats.elapsed_seconds, 6),
    }
    if stats.windows_total:
        payload["windows_total"] = stats.windows_total
        payload["windows_evaluated"] = stats.windows_evaluated
        payload["windows_pruned"] = stats.windows_pruned
        payload["windows_abandoned"] = stats.windows_abandoned
    if stats.bytes_touched or stats.pages_read:
        payload["bytes_touched"] = stats.bytes_touched
        payload["pages_read"] = stats.pages_read
        payload["pool_hit_rate"] = round(stats.pool_hit_rate, 6)
    return payload
