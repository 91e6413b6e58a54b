"""Serving metrics: counters, a latency ring buffer, pruning aggregates.

The registry is deliberately small and dependency-free: counters are
plain ints behind one lock, latencies live in fixed-size ring buffers
(``collections.deque(maxlen=...)``) so memory is bounded no matter how
long the server runs, and percentiles are computed on demand from the
window — recent-window percentiles, which is what you want on a
dashboard anyway.

Everything the paper's experiments measure per query
(:class:`repro.SearchStats`: database size, true-distance computations,
per-pruner credit) is aggregated here across all served queries, so
``/stats`` reports the service's *operational pruning power* — the
fraction of candidate EDR computations the Section 4 bounds avoided
since startup.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Dict, Iterable, Optional

from ..core.search import SearchStats
from ..core.sharding import RECOVERY_FIELDS

__all__ = ["LatencyWindow", "MetricsRegistry", "summarize_samples"]


def summarize_samples(samples: Iterable[float], count: Optional[int] = None) -> dict:
    """A :meth:`LatencyWindow.summary`-shaped dict from raw samples.

    The replicated serving tier ships each replica's ring-buffer
    *samples* (seconds) over the stats RPC and merges them router-side;
    this computes the same count/mean/percentile summary over the merged
    window so fleet totals and single-process ``/stats`` read alike.
    ``count`` is the lifetime observation count when it exceeds the
    window (rings drop old samples; counters do not).
    """
    ordered = sorted(samples)
    if not ordered:
        return {"count": count or 0, "window": 0}

    def at(fraction: float) -> float:
        rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
        return round(ordered[rank] * 1000.0, 3)

    return {
        "count": count if count is not None else len(ordered),
        "window": len(ordered),
        "mean_ms": round(sum(ordered) / len(ordered) * 1000.0, 3),
        "p50_ms": at(0.50),
        "p90_ms": at(0.90),
        "p99_ms": at(0.99),
        "max_ms": round(ordered[-1] * 1000.0, 3),
    }


class LatencyWindow:
    """A fixed-size ring buffer of latency observations, in seconds."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("latency window capacity must be at least 1")
        self._window = deque(maxlen=capacity)
        self.count = 0
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self._window.append(seconds)
        self.count += 1
        self.total_seconds += seconds

    def samples(self) -> list:
        """The current window contents (seconds), oldest first."""
        return list(self._window)

    def percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile (nearest-rank) of the current window."""
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
        return ordered[rank]

    def summary(self) -> dict:
        """Count/mean/percentiles in milliseconds, for ``/stats``."""
        return summarize_samples(self._window, self.count)


class MetricsRegistry:
    """All serving counters behind one lock, snapshotted for ``/stats``."""

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._latency_capacity = latency_window
        self.started_monotonic = time.monotonic()
        self.started_unix = time.time()

        self.requests: Counter = Counter()          # per route
        self.responses: Counter = Counter()         # per status code
        self.rejected = 0                           # 503 admission refusals
        self.timeouts = 0                           # 504 deadline expiries
        self.errors = 0                             # 4xx/5xx other than above

        self._latencies: Dict[str, LatencyWindow] = {}

        # Micro-batcher accounting.
        self.batches = 0
        self.batched_requests = 0                   # requests entering batches
        self.batched_unique = 0                     # distinct queries computed
        self.coalesced = 0                          # duplicates answered free
        self.max_batch_size = 0

        # Aggregated SearchStats across every served search.
        self.search_queries = 0
        self.search_candidates = 0
        self.search_true_distance_computations = 0
        self.search_seconds = 0.0
        self.pruned_by: Counter = Counter()
        # Subtrajectory (windowed) search counters: zero until the first
        # ``/subknn`` query, at which point ``/stats`` reports how many
        # candidate windows the banded range admitted and how the bounds
        # disposed of them.
        self.windows_total = 0
        self.windows_evaluated = 0
        self.windows_pruned = 0
        self.windows_abandoned = 0

        # Sharded-execution accounting: queries answered by the
        # partition-parallel engine, their bound-republish rounds, and
        # the per-shard split of the same SearchStats counters.
        self.sharded_queries = 0
        self.sharded_rounds = 0
        self._shard_tallies: Dict[int, dict] = {}
        # Recovery events across every served query (the sharded
        # engine's per-query counters, summed) plus serial fallbacks.
        self.resilience: Counter = Counter()
        self.degraded_queries = 0
        # Which multiprocessing start methods actually served searches
        # (``fork`` everywhere it exists; the fallback method where not).
        self.start_methods: Counter = Counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, route: str) -> None:
        with self._lock:
            self.requests[route] += 1

    def record_response(self, route: str, status: int, seconds: float) -> None:
        with self._lock:
            self.responses[status] += 1
            if status == 503:
                self.rejected += 1
            elif status == 504:
                self.timeouts += 1
            elif status >= 400:
                self.errors += 1
            window = self._latencies.get(route)
            if window is None:
                window = self._latencies[route] = LatencyWindow(
                    self._latency_capacity
                )
            window.observe(seconds)

    def record_batch(self, submitted: int, unique: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += submitted
            self.batched_unique += unique
            self.coalesced += submitted - unique
            self.max_batch_size = max(self.max_batch_size, submitted)

    def record_search_stats(
        self, stats: Iterable[SearchStats], seconds: Optional[float] = None
    ) -> None:
        with self._lock:
            for per_query in stats:
                self.search_queries += 1
                self.search_candidates += per_query.database_size
                self.search_true_distance_computations += (
                    per_query.true_distance_computations
                )
                self.pruned_by.update(per_query.pruned_by)
                self.windows_total += getattr(per_query, "windows_total", 0)
                self.windows_evaluated += getattr(
                    per_query, "windows_evaluated", 0
                )
                self.windows_pruned += getattr(per_query, "windows_pruned", 0)
                self.windows_abandoned += getattr(
                    per_query, "windows_abandoned", 0
                )
                method = getattr(per_query, "start_method", None)
                if method:
                    self.start_methods[method] += 1
                for name in RECOVERY_FIELDS:
                    value = getattr(per_query, name, 0)
                    if value:
                        self.resilience[name] += int(value)
                if getattr(per_query, "degraded", False):
                    self.degraded_queries += 1
                per_shard = getattr(per_query, "per_shard", None)
                if per_shard:
                    self.sharded_queries += 1
                    self.sharded_rounds += getattr(per_query, "rounds", 0)
                    for shard_id, shard_stats in enumerate(per_shard):
                        tally = self._shard_tallies.setdefault(
                            shard_id,
                            {
                                "queries": 0,
                                "candidates": 0,
                                "true_distance_computations": 0,
                                "pruned_by": Counter(),
                            },
                        )
                        tally["queries"] += 1
                        tally["candidates"] += shard_stats.database_size
                        tally["true_distance_computations"] += (
                            shard_stats.true_distance_computations
                        )
                        tally["pruned_by"].update(shard_stats.pruned_by)
                if seconds is None:
                    self.search_seconds += per_query.elapsed_seconds
            if seconds is not None:
                self.search_seconds += seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def latency_samples(self) -> Dict[str, dict]:
        """Each route's lifetime count and raw window samples (seconds).

        A replica ships these to the router, which merges them across
        the fleet with :func:`summarize_samples`.
        """
        with self._lock:
            return {
                route: {"count": window.count, "samples": window.samples()}
                for route, window in self._latencies.items()
            }

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_monotonic

    def snapshot(self) -> dict:
        with self._lock:
            avoided = self.search_candidates - self.search_true_distance_computations
            return {
                "uptime_seconds": round(self.uptime_seconds, 3),
                "requests": dict(self.requests),
                "responses": {str(code): n for code, n in self.responses.items()},
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "latency": {
                    route: window.summary()
                    for route, window in self._latencies.items()
                },
                "batcher": {
                    "batches": self.batches,
                    "requests": self.batched_requests,
                    "unique_computed": self.batched_unique,
                    "coalesced": self.coalesced,
                    "max_batch_size": self.max_batch_size,
                    "mean_batch_size": round(
                        self.batched_requests / self.batches, 3
                    )
                    if self.batches
                    else 0.0,
                },
                "search": {
                    "queries": self.search_queries,
                    "candidates": self.search_candidates,
                    "true_distance_computations": (
                        self.search_true_distance_computations
                    ),
                    "pruning_power": round(
                        avoided / self.search_candidates, 6
                    )
                    if self.search_candidates
                    else 0.0,
                    "pruned_by": dict(self.pruned_by),
                    "engine_seconds": round(self.search_seconds, 6),
                    "windows": {
                        "total": self.windows_total,
                        "evaluated": self.windows_evaluated,
                        "pruned": self.windows_pruned,
                        "abandoned": self.windows_abandoned,
                    },
                },
                "multiprocessing": {
                    "start_methods": dict(self.start_methods),
                },
                "sharding": {
                    "queries": self.sharded_queries,
                    "rounds": self.sharded_rounds,
                    "resilience": {
                        **{
                            name: self.resilience.get(name, 0)
                            for name in RECOVERY_FIELDS
                        },
                        "degraded_queries": self.degraded_queries,
                    },
                    "per_shard": [
                        {
                            "shard": shard_id,
                            "queries": tally["queries"],
                            "candidates": tally["candidates"],
                            "true_distance_computations": (
                                tally["true_distance_computations"]
                            ),
                            "pruned_by": dict(tally["pruned_by"]),
                        }
                        for shard_id, tally in sorted(
                            self._shard_tallies.items()
                        )
                    ],
                },
            }
