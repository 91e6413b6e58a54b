"""Configuration for the trajectory query service.

One dataclass holds every serving knob so the CLI, the benchmark
harness, and the tests construct servers the same way.  ``validated()``
is called once at server construction; ``public()`` is what ``/stats``
echoes back (no derived state, just the knobs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from ..core.edr_batch import DEFAULT_REFINE_BATCH_SIZE

__all__ = ["ServiceConfig"]


@dataclass
class ServiceConfig:
    """Every knob of the query service, with serving-sane defaults.

    Search parameters
    -----------------
    ``pruners`` is the default pruner chain (same comma syntax as the
    CLI; per-request override allowed).  k-NN dispatch runs
    :func:`repro.knn_batch`, that is :func:`repro.knn_search` in bound
    order (the paper's HSR): candidates in ascending first-pruner lower
    bound, stopping at the first bound that cannot beat the k-th
    distance; an empty chain scans.  Served answers and counters equal
    a direct :func:`repro.knn_search` call's byte for byte, ties
    included.  Refinement runs the bit-parallel EDR kernel.

    Micro-batching
    --------------
    A k-NN request that reaches an idle batcher is dispatched at once;
    requests that arrive while a batch computes queue and go out as one
    :func:`repro.knn_batch` call per parameter signature when it
    finishes, or as soon as ``max_batch`` distinct queries are queued.
    Duplicates of a queued or computing query share its computation.
    ``max_batch=1`` disables batching (and with it duplicate
    coalescing): every request dispatches alone, which is the baseline
    ``bench-serve`` measures against.

    Admission control
    -----------------
    At most ``queue_limit`` requests may be queued or executing; beyond
    that the server answers 503 with a ``Retry-After: retry_after_s``
    header instead of building an unbounded backlog.  Each admitted
    request is also bounded by ``request_timeout_s`` (a 504 on expiry —
    the underlying computation is not interrupted, only the waiter).
    On SIGTERM the server stops accepting, flushes pending batches, and
    waits up to ``drain_timeout_s`` for in-flight work.
    """

    host: str = "127.0.0.1"
    port: int = 8765

    # Search parameters
    pruners: str = "histogram,qgram"
    k_default: int = 10
    early_abandon: bool = False
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE
    matrix_workers: Optional[int] = None

    # Intra-query sharding (``shards > 1`` routes supported k-NN specs
    # through the resident shared-memory ShardedDatabase engine; answers
    # are unchanged, only the execution is partition-parallel).
    shards: int = 1
    shard_workers: Optional[int] = None

    # Replicated serving tier (``replicas > 1`` puts an asyncio router
    # in front of N resident engine replica processes; answers are
    # unchanged — requests are consistent-hash routed on their full
    # signature so duplicates land on the same replica and its
    # epoch-keyed result cache; the union of the per-replica caches is
    # the fleet-wide cache, with aggregate capacity
    # ``replicas * cache_size``).  ``replica_queue_depth`` bounds each
    # replica's outstanding RPCs (beyond it the router sheds with 503 +
    # Retry-After); ``replica_spillover_depth`` is the queue depth at
    # which the router abandons hash affinity and spills to the
    # least-loaded replica; ``replica_retries`` is how many sibling
    # retries a failed RPC gets before the request errors out.
    replicas: int = 1
    replica_queue_depth: int = 8
    replica_spillover_depth: int = 4
    replica_rpc_timeout_s: float = 30.0
    replica_retries: int = 2
    replica_spawn_timeout_s: float = 60.0

    # Tiered storage: when set, the service serves a store directory
    # built by ``repro-trajectory build-store`` — artifacts attach as
    # read-only mmaps, candidates page in through the buffer pool, and
    # ``/stats`` gains a ``storage`` section.  With ``shards > 1`` the
    # sharded engine runs in mmap-attach mode over the same files.
    store: Optional[str] = None
    store_pool_pages: int = 256

    # Live ingest: when set, the service serves an ingest root
    # (``repro-trajectory ingest ROOT --init ...``) — the corpus is the
    # current generation merged with the WAL delta, and ``follow`` makes
    # the server poll the root and hot-swap to newly compacted
    # generations without dropping in-flight queries.
    ingest_root: Optional[str] = None
    follow: bool = False
    follow_poll_s: float = 0.25

    # Micro-batching
    max_batch: int = 16

    # Result cache
    cache_size: int = 256

    # Admission control
    queue_limit: int = 64
    request_timeout_s: float = 60.0
    retry_after_s: float = 1.0
    drain_timeout_s: float = 10.0
    # When True, compute requests get 503 while the sharded engine is in
    # degraded mode (serial fallback) instead of slower exact answers —
    # for deployments that prefer shedding to latency inflation.
    reject_on_degraded: bool = False

    # Transport
    max_body_bytes: int = 32 * 1024 * 1024
    latency_window: int = 2048

    def validated(self) -> "ServiceConfig":
        """Return self after range-checking every knob (raises ValueError)."""
        if self.k_default < 1:
            raise ValueError("k_default must be at least 1")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ValueError("shard_workers must be at least 1 (or None)")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.replica_queue_depth < 1:
            raise ValueError("replica_queue_depth must be at least 1")
        if self.replica_spillover_depth < 1:
            raise ValueError("replica_spillover_depth must be at least 1")
        if self.replica_rpc_timeout_s <= 0.0:
            raise ValueError("replica_rpc_timeout_s must be positive")
        if self.replica_retries < 0:
            raise ValueError("replica_retries must be non-negative")
        if self.replica_spawn_timeout_s <= 0.0:
            raise ValueError("replica_spawn_timeout_s must be positive")
        if self.store_pool_pages < 1:
            raise ValueError("store_pool_pages must be at least 1")
        if self.ingest_root is not None and self.store is not None:
            raise ValueError("ingest_root and store are mutually exclusive")
        if self.follow and self.ingest_root is None:
            raise ValueError("follow requires ingest_root")
        if self.follow_poll_s <= 0.0:
            raise ValueError("follow_poll_s must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.request_timeout_s <= 0.0:
            raise ValueError("request_timeout_s must be positive")
        if self.retry_after_s < 0.0:
            raise ValueError("retry_after_s must be non-negative")
        if self.drain_timeout_s < 0.0:
            raise ValueError("drain_timeout_s must be non-negative")
        if self.max_body_bytes < 1024:
            raise ValueError("max_body_bytes must be at least 1 KiB")
        if self.latency_window < 1:
            raise ValueError("latency_window must be at least 1")
        return self

    def public(self) -> dict:
        """The configuration as echoed on ``/stats``."""
        return asdict(self)
