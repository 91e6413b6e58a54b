"""Multi-query k-NN serving: one pruner build, many queries.

The single-query engines in :mod:`repro.core.search` rebuild nothing per
query — all database-side artifacts (histogram grids, pooled Q-gram
arrays, reference columns) live behind caches on
:class:`~repro.core.database.TrajectoryDatabase` and the ``Pruner``
objects.  What a naive serving loop still pays for is (a) constructing
the pruner chain once per call site and (b) running queries strictly one
after another.  :func:`knn_batch` fixes both: the pruners are built (and
their database artifacts forced warm) exactly once, then the query set
fans out over a worker pool.

Executor choice
---------------
``serial``
    Plain loop, no pool.  The reference behavior; also the automatic
    choice on single-core machines, where a pool only adds overhead.
``thread``
    ``ThreadPoolExecutor`` sharing the warm pruners.  The bulk
    lower-bound kernels spend their time inside numpy, which releases
    the GIL, so threads overlap the filter phase; the EDR refinement
    rows are numpy too.
``process``
    ``ProcessPoolExecutor`` with a fork context: workers inherit the
    database and pruners through copy-on-write memory instead of
    pickling them per task.  Falls back to the default context where
    fork is unavailable.
``auto``
    ``serial`` when the effective worker count is 1, else ``thread``.

Whatever the executor, the answers are exactly those of running
:func:`~repro.core.search.knn_search` (or :func:`knn_scan`, for an
empty chain) once per query, in query order.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .database import TrajectoryDatabase
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE
from .kernels import check_kernel_choice
from .mp import process_context
from .search import (
    Neighbor,
    Pruner,
    SearchResult,
    SearchStats,
    knn_scan,
    knn_search,
)
from .subtrajectory import DEFAULT_WINDOW_ALPHA, subknn_search
from .trajectory import Trajectory

__all__ = ["knn_batch", "warm_pruners", "BatchResult"]

# Per-process state for the fork-based process pool: set in the parent
# before forking so children inherit it without any per-task pickling.
_WORKER_STATE: Optional[dict] = None


@dataclass
class BatchResult:
    """Results of a multi-query batch, in query order."""

    neighbors: List[List[Neighbor]]
    stats: List[SearchStats]
    elapsed_seconds: float = 0.0
    executor: str = "serial"
    workers: int = 1
    extra: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(zip(self.neighbors, self.stats))

    def __len__(self) -> int:
        return len(self.neighbors)


def _run_engine(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    pruners: Sequence[Pruner],
    early_abandon: bool,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    edr_kernel: Optional[str] = None,
    sub: bool = False,
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
):
    if sub:
        # With no pruners the window scan degenerates to the full scan.
        return subknn_search(
            database,
            query,
            k,
            pruners,
            alpha=alpha,
            min_window=min_window,
            max_window=max_window,
            early_abandon=early_abandon,
            refine_batch_size=refine_batch_size,
        )
    if not pruners:
        return knn_scan(database, query, k, edr_kernel=edr_kernel)
    return knn_search(
        database,
        query,
        k,
        pruners,
        early_abandon=early_abandon,
        refine_batch_size=refine_batch_size,
        edr_kernel=edr_kernel,
    )


def warm_pruners(pruners: Sequence[Pruner], probe: Trajectory) -> None:
    """Force every database-side artifact to exist before queries fan out.

    Pruner construction is lazy in places (reference columns, pooled
    Q-gram arrays build on first use); one throwaway ``for_query`` per
    pruner materializes them in the parent so concurrent workers never
    race to build — or redundantly rebuild — the same cache.  Long-lived
    callers (the query service, batch jobs) call this once at startup so
    no request ever pays index-construction latency.
    """
    for pruner in pruners:
        pruner.for_query(probe)


def _initialize_worker(state: dict) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _process_task(query_position: int) -> SearchResult:
    state = _WORKER_STATE
    assert state is not None, "process worker used before initialization"
    return _run_engine(
        state["database"],
        state["queries"][query_position],
        state["k"],
        state["pruners"],
        state["early_abandon"],
        state["refine_batch_size"],
        state["edr_kernel"],
        state["sub"],
        state["alpha"],
        state["min_window"],
        state["max_window"],
    )


def _resolve_executor(executor: str, workers: int) -> str:
    if executor not in ("auto", "serial", "thread", "process"):
        raise ValueError(
            f"unknown executor {executor!r}; "
            "choose from auto, serial, thread, process"
        )
    if executor == "auto":
        if workers <= 1 or (os.cpu_count() or 1) <= 1:
            return "serial"
        return "thread"
    return executor


def knn_batch(
    database: TrajectoryDatabase,
    queries: Sequence[Trajectory],
    k: int,
    pruners: Sequence[Pruner] = (),
    workers: Optional[int] = None,
    executor: str = "auto",
    early_abandon: bool = False,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    shards: Optional[int] = None,
    shard_workers: Optional[int] = None,
    sharded=None,
    edr_kernel: Optional[str] = None,
    sub: bool = False,
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
) -> BatchResult:
    """Answer many k-NN queries against one database.

    Parameters
    ----------
    database, k:
        As in the single-query engines.
    queries:
        The query trajectories; results come back in the same order.
    pruners:
        Shared pruner chain.  Built once by the caller, warmed once
        here, reused by every query.  Each query runs
        :func:`~repro.core.search.knn_search` in bound order; empty
        means sequential scan.
    workers:
        Worker count for the pool; ``None`` means ``os.cpu_count()``.
        Ignored by the serial executor.
    executor:
        ``"auto"``, ``"serial"``, ``"thread"``, or ``"process"`` — see
        the module docstring.
    refine_batch_size:
        Candidate-batch size for the engines' batched EDR refinement
        (see :func:`repro.knn_search`); ``None`` restores the scalar
        per-candidate verification.
    edr_kernel:
        The refine kernel's name (see :mod:`repro.core.kernels`);
        ``None`` runs the bit-parallel kernel.  Answers are
        byte-identical for every choice.  Validated for every mode, but
        the window engines (``sub=True``) ignore it: their kernels are
        fixed by role.
    shards / shard_workers / sharded:
        The *intra*-query parallelism axis.  ``shards > 1`` partitions
        the database and runs every query through the shared-memory
        :class:`~repro.core.sharding.ShardedDatabase` engine (queries
        stay sequential: each one occupies the whole shard pool).
        ``sharded`` passes a prebuilt engine instead — the long-lived
        path used by the query service, which keeps its worker pool and
        shared-memory blocks resident across requests.  Answers are
        byte-for-byte those of the serial engines either way; the
        pruner chain must map onto the spec families
        (histogram/histogram-1d/qgram/nti).
    sub / alpha / min_window / max_window:
        ``sub=True`` switches every query to the subtrajectory engine
        (:func:`repro.core.subtrajectory.subknn_search`): each result
        row is a :class:`~repro.core.subtrajectory.WindowMatch` — the
        best banded window per corpus trajectory, top-k across the
        corpus — instead of a :class:`Neighbor`.  ``alpha`` bands the
        window lengths to ``[m·(1−α), m·(1+α)]`` around each query's
        length ``m``; ``min_window``/``max_window`` override the band
        edges explicitly.  With no pruners the window scan degenerates
        to a scan, and every executor — serial, thread, process,
        sharded — answers byte-for-byte identically.
    """
    check_kernel_choice(edr_kernel)
    queries = list(queries)
    pruners = list(pruners)
    if sharded is not None or (shards is not None and shards > 1):
        if not pruners and not sub:
            raise ValueError(
                "sharded execution applies to a pruned chain, not a scan"
            )
        return _knn_batch_sharded(
            database, queries, k, pruners, early_abandon,
            refine_batch_size, shards, shard_workers, sharded, edr_kernel,
            sub, alpha, min_window, max_window,
        )
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, max(len(queries), 1))
    chosen = _resolve_executor(executor, workers)

    start = time.perf_counter()
    if queries and pruners:
        warm_pruners(pruners, queries[0])
    warm_seconds = time.perf_counter() - start

    if chosen == "serial" or workers == 1 or len(queries) <= 1:
        chosen = "serial"
        results = [
            _run_engine(
                database, query, k, pruners, early_abandon,
                refine_batch_size, edr_kernel, sub, alpha,
                min_window, max_window,
            )
            for query in queries
        ]
    elif chosen == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda query: _run_engine(
                        database, query, k, pruners, early_abandon,
                        refine_batch_size, edr_kernel, sub, alpha,
                        min_window, max_window,
                    ),
                    queries,
                )
            )
    else:  # process
        state = {
            "database": database,
            "queries": queries,
            "k": k,
            "pruners": pruners,
            "early_abandon": early_abandon,
            "refine_batch_size": refine_batch_size,
            "edr_kernel": edr_kernel,
            "sub": sub,
            "alpha": alpha,
            "min_window": min_window,
            "max_window": max_window,
        }
        context, start_method = process_context("fork")
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_initialize_worker,
            initargs=(state,),
        ) as pool:
            results = list(pool.map(_process_task, range(len(queries))))
        for _, stats in results:
            stats.start_method = start_method

    elapsed = time.perf_counter() - start
    extra = {"warm_seconds": warm_seconds}
    if sub:
        extra["sub"] = True
        extra["alpha"] = alpha
    if chosen == "process":
        extra["start_method"] = start_method
    return BatchResult(
        neighbors=[neighbors for neighbors, _ in results],
        stats=[stats for _, stats in results],
        elapsed_seconds=elapsed,
        executor=chosen,
        workers=1 if chosen == "serial" else workers,
        extra=extra,
    )


def _knn_batch_sharded(
    database: TrajectoryDatabase,
    queries: Sequence[Trajectory],
    k: int,
    pruners: Sequence[Pruner],
    early_abandon: bool,
    refine_batch_size: Optional[int],
    shards: Optional[int],
    shard_workers: Optional[int],
    sharded,
    edr_kernel: Optional[str] = None,
    sub: bool = False,
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
) -> BatchResult:
    """Run the batch through the sharded intra-query engine, whose
    answers equal the serial ``knn_search``'s."""
    from .sharding import ShardedDatabase, pruner_spec_of

    spec = pruner_spec_of(pruners)
    owned = sharded is None
    if owned:
        sharded = ShardedDatabase(
            database,
            shards,
            specs=[spec],
            workers=shard_workers,
        )
    elif not sharded.supports(spec):
        raise ValueError(
            f"prebuilt sharded engine lacks artifacts for pruner spec {spec!r}"
        )
    start = time.perf_counter()
    try:
        if sub:
            results = [
                sharded.subknn_search(
                    query, k, spec=spec, alpha=alpha,
                    min_window=min_window, max_window=max_window,
                    early_abandon=early_abandon,
                    refine_batch_size=refine_batch_size,
                )
                for query in queries
            ]
        else:
            results = [
                sharded.knn_search(
                    query, k, spec=spec, early_abandon=early_abandon,
                    refine_batch_size=refine_batch_size, edr_kernel=edr_kernel,
                )
                for query in queries
            ]
    finally:
        if owned:
            sharded.close()
    elapsed = time.perf_counter() - start
    extra = {
        "shards": sharded.shards,
        "shard_mode": sharded.mode,
        "start_method": sharded.start_method,
    }
    if sub:
        extra["sub"] = True
        extra["alpha"] = alpha
    return BatchResult(
        neighbors=[neighbors for neighbors, _ in results],
        stats=[stats for _, stats in results],
        elapsed_seconds=elapsed,
        executor="sharded",
        workers=sharded.workers,
        extra=extra,
    )
