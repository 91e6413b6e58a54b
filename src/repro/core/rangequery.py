"""Range queries under EDR: all trajectories within a distance threshold.

The Q-gram count filter (Theorem 1) was originally a *range query*
technique — "retrieve all strings within k edit operations" — before the
paper extended it to k-NN.  This module provides that original form for
all three pruning methods: given a query trajectory and a radius k,
return every database trajectory S with ``EDR(Q, S) <= k``.

Range pruning is simpler than k-NN pruning because the threshold is
fixed up front: a candidate is skipped as soon as any lower bound
exceeds the radius, and the near-triangle pruner can also use computed
distances *both* ways (a very close S proves nothing, but Theorem 5
still eliminates far candidates).
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from .database import TrajectoryDatabase
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE
from .kernels import length_bucket, resolve_kernel_plan, run_kernel, scalar_kernel
from .search import (
    Neighbor,
    Pruner,
    SearchStats,
    _Chain,
    _PendingBatches,
    _normalized_batch_size,
)
from .trajectory import Trajectory

__all__ = ["range_scan", "range_search"]


def range_scan(
    database: TrajectoryDatabase,
    query: Trajectory,
    radius: float,
    edr_kernel: "str | None" = None,
) -> "tuple[List[Neighbor], SearchStats]":
    """Sequential-scan range query: the pruning-free baseline."""
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    start = time.perf_counter()
    stats = SearchStats(database_size=len(database))
    plan = resolve_kernel_plan(database, edr_kernel)
    stats.kernel = plan.requested
    results: List[Neighbor] = []
    for index in range(len(database)):
        stats.true_distance_computations += 1
        candidate = database.trajectories[index]
        kernel_fn = scalar_kernel(plan.kernel_for_length(len(candidate)))
        distance = kernel_fn(query, candidate, database.epsilon)
        if distance <= radius:
            results.append(Neighbor(index, distance))
    stats.elapsed_seconds = time.perf_counter() - start
    return results, stats


def range_search(
    database: TrajectoryDatabase,
    query: Trajectory,
    radius: float,
    pruners: Sequence[Pruner],
    early_abandon: bool = False,
    refine_batch_size: "int | None" = DEFAULT_REFINE_BATCH_SIZE,
    edr_kernel: "str | None" = None,
) -> "tuple[List[Neighbor], SearchStats]":
    """Range query with a chain of pruners; scan-identical answers.

    Every pruner's ``lower_bound`` is compared against the fixed radius:
    ``lower_bound > radius`` proves ``EDR > radius``, so the candidate
    cannot qualify.  With ``early_abandon=True`` the EDR computation
    itself stops once the radius is unreachable (the partial computation
    still counts as a true-distance computation in the stats).

    Static pruners are evaluated through their bulk quick-bound kernels:
    the first for every row, each later one (the radius being fixed)
    once, for the rows every earlier quick bound let through.  Dynamic
    pruners keep the scalar per-candidate path so the bounds reflect
    distances recorded earlier in this same query.

    ``refine_batch_size`` batches the verification of surviving
    candidates through the batched EDR kernel in length-bucketed groups
    (the radius is a fixed threshold, so batching loses nothing to
    bound staleness here).  ``None`` restores the scalar path.

    ``edr_kernel`` selects the refine kernel exactly as in
    :func:`repro.core.search.knn_search`; answers are byte-identical
    for every choice.
    """
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    start = time.perf_counter()
    stats = SearchStats(database_size=len(database))
    plan = resolve_kernel_plan(database, edr_kernel)
    stats.kernel = plan.requested
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    chain = _Chain(query_pruners, len(database), len(database))
    results: List[Neighbor] = []
    batch_size = _normalized_batch_size(refine_batch_size)
    pending = _PendingBatches(batch_size) if batch_size is not None else None

    def verify_batch(candidate_indices: List[int]) -> None:
        bound = radius if early_abandon else None
        bucket = length_bucket(int(database.lengths[candidate_indices[0]]))
        kernel = plan.kernel_for_bucket(bucket)
        stats.kernel_buckets[str(bucket)] = kernel
        candidates = [database.trajectories[i] for i in candidate_indices]
        kernel_start = time.perf_counter()
        distances = run_kernel(
            kernel, query, candidates, database.epsilon, bounds=bound
        )
        stats.note_kernel(
            kernel,
            len(query) * int(sum(len(c) for c in candidates)),
            time.perf_counter() - kernel_start,
        )
        stats.true_distance_computations += len(candidate_indices)
        for candidate_index, distance in zip(candidate_indices, distances):
            distance = float(distance)
            if np.isfinite(distance):
                for query_pruner in query_pruners:
                    query_pruner.record(candidate_index, distance)
                if distance <= radius:
                    results.append(Neighbor(candidate_index, distance))

    for index in range(len(database)):
        pruner = chain.pruner_for(index, index, radius)
        if pruner is not None:
            stats.credit(pruner.name)
            continue
        if pending is None:
            stats.true_distance_computations += 1
            bound = radius if early_abandon else None
            candidate = database.trajectories[index]
            kernel_fn = scalar_kernel(plan.kernel_for_length(len(candidate)))
            distance = kernel_fn(
                query, candidate, database.epsilon, bound=bound
            )
            if np.isfinite(distance):
                for query_pruner in query_pruners:
                    query_pruner.record(index, distance)
                if distance <= radius:
                    results.append(Neighbor(index, distance))
            continue
        full_bucket = pending.add(index, int(database.lengths[index]))
        if full_bucket is not None:
            verify_batch(full_bucket)
    if pending is not None:
        for bucket in pending.drain():
            verify_batch(bucket)
        # Batches flush out of database order; restore the scalar
        # path's index-ordered result list.
        results.sort(key=lambda neighbor: neighbor.index)
    stats.elapsed_seconds = time.perf_counter() - start
    return results, stats
