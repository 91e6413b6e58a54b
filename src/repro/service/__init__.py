"""Trajectory query service: a resident, warmed database behind HTTP/JSON.

Everything else in this package serves one operational idea from the
paper: the cheap lower bounds of Section 4 only pay off when their
indexes are built *once* and amortized across many queries.  The service
holds one warmed :class:`~repro.core.database.TrajectoryDatabase`
resident and serves k-NN / range / distance queries over a small
stdlib-only HTTP/JSON protocol:

* :mod:`~repro.service.config` — :class:`ServiceConfig`, every knob.
* :mod:`~repro.service.batcher` — the micro-batcher: a k-NN request
  to an idle batcher is dispatched at once, requests that arrive while
  a batch computes go out together through :func:`repro.knn_batch`,
  and duplicates of a queued or computing query share one computation.
* :mod:`~repro.service.cache` — LRU result cache with hit/miss
  accounting.
* :mod:`~repro.service.metrics` — request counters, latency percentiles
  from a ring buffer, aggregated pruning stats; exposed on ``/stats``.
* :mod:`~repro.service.handlers` — request validation, admission
  control, and dispatch (:class:`TrajectoryService`).
* :mod:`~repro.service.server` — asyncio HTTP framing,
  :func:`run_server` (blocking, signal-aware) and :class:`ServerHandle`
  (in-process server for tests and benchmarks).
* :mod:`~repro.service.replicas` — the replicated serving tier:
  :class:`ReplicaFleet`, a consistent-hash router over N resident
  engine replica processes whose per-replica caches compose into one
  fleet-wide result cache, with rolling deploys and fault recovery.
* :mod:`~repro.service.client` — :class:`ServiceClient`, a thin
  synchronous client over ``http.client``.
* :mod:`~repro.service.bench` — the closed-loop load generator behind
  ``repro-trajectory bench-serve`` (writes ``BENCH_service.json``).
"""

from .cache import ResultCache, query_digest
from .client import ServiceClient, ServiceError
from .config import ServiceConfig
from .handlers import TrajectoryService
from .metrics import MetricsRegistry
from .pruning import PRUNER_CHOICES, build_pruners, canonical_pruner_spec
from .replicas import FleetRejection, FleetSpec, ReplicaFleet, ReplicaSpawnError
from .server import PortInUseError, ServerHandle, run_server

__all__ = [
    "ServiceConfig",
    "TrajectoryService",
    "ServerHandle",
    "run_server",
    "PortInUseError",
    "ServiceClient",
    "ServiceError",
    "ResultCache",
    "query_digest",
    "MetricsRegistry",
    "build_pruners",
    "canonical_pruner_spec",
    "PRUNER_CHOICES",
    "ReplicaFleet",
    "FleetSpec",
    "FleetRejection",
    "ReplicaSpawnError",
]
