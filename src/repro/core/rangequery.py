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

from .database import TrajectoryDatabase
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE
# ``run_kernel`` is no longer called here (refinement runs in
# ``search._refine_batch``), but the benchmark's tracer patches it by
# this module's name, so the name stays.
from .kernels import check_kernel_choice, run_kernel  # noqa: F401
from .search import (
    Neighbor,
    Pruner,
    SearchStats,
    _Chain,
    _knn,
    _RadiusList,
    _true_distance,
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
    start = time.perf_counter()
    result = _RadiusList(radius)
    stats = SearchStats(database_size=len(database))
    stats.kernel = kernel = check_kernel_choice(edr_kernel)
    for index in range(len(database)):
        result.offer(index, _true_distance(database, query, index, stats, kernel=kernel))
    stats.elapsed_seconds = time.perf_counter() - start
    return result.neighbors(), stats


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

    This is :func:`repro.core.search.knn_search`'s loop with the radius
    as its threshold.  Static pruners are evaluated through their bulk
    quick-bound kernels: the first for every row, each later one (the
    radius being fixed) once, for the rows every earlier quick bound let
    through.  Dynamic pruners keep the scalar per-candidate path so the
    bounds reflect distances recorded earlier in this same query.

    ``refine_batch_size`` batches the verification of surviving
    candidates through the batched EDR kernel in length-bucketed groups
    (the radius is a fixed threshold, so batching loses nothing to
    bound staleness here).  ``None`` restores the scalar path.

    ``edr_kernel`` selects the refine kernel exactly as in
    :func:`repro.core.search.knn_search`; answers are byte-identical
    for every choice.
    """
    started = time.perf_counter()
    result = _RadiusList(radius)
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    # The radius is fixed, so later stages fill once, over every row.
    source = _Chain(query_pruners, len(database), window=len(database))
    return _knn(
        database, query, result, query_pruners, source,
        early_abandon, refine_batch_size, edr_kernel, started,
    )
