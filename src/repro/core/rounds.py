"""The frozen-threshold round loop of the round-based engines.

:func:`run_rounds` walks a route's visit order in rounds whose pruning
threshold is frozen (see :mod:`repro.core.sharding` and
``docs/SHARDING.md``) and hands each refine wave to a *round executor*:
the shard coordinator's dispatch, or serial best-window search's
in-process refine (:func:`~repro.core.subtrajectory.subknn_search`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .search import Neighbor, QueryPruner, SearchStats, _ResultList

__all__ = ["round_stats", "run_rounds"]


@dataclass
class _Route:
    """The whole-trajectory route (k-NN or range) through the rounds.

    :func:`run_rounds` is one loop for every route; a route holds only
    what differs between them: the visit order and the per-position
    bounds (``None`` asks a dynamic pruner itself), the windows each
    pruned trajectory retires (``weights``), how a round's chunk splits
    into refine waves, the refine wave's shard-runtime method and its
    fixed arguments, the result offer, the per-outcome stats, and whether
    a merge republishes the cooperative bound.
    """

    method: ClassVar[str] = "refine"
    republish: ClassVar[bool] = True

    query_pruners: List[QueryPruner]
    bounds: List[Optional[np.ndarray]]
    order_keys: np.ndarray
    result: Optional[_ResultList]
    args: tuple
    radius: Optional[float] = None
    weights: Optional[np.ndarray] = None
    kernel: Optional[str] = None
    hits: List[Neighbor] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.names = [query_pruner.name for query_pruner in self.query_pruners]

    def threshold(self) -> float:
        """The current k-th best distance, or the range radius."""
        return self.radius if self.result is None else self.result.best_so_far

    def pruned_at(self, candidate: int, threshold: float) -> Optional[int]:
        """The first chain position whose bound exceeds ``threshold``."""
        for position, bounds in enumerate(self.bounds):
            if bounds is None:
                bound = self.query_pruners[position].lower_bound(candidate, threshold)
            else:
                bound = bounds[candidate]
            if bound > threshold:
                return position
        return None

    def phases(
        self,
        chunk: List[int],
        threshold: float,
        retire: Callable[[int, str], None],
    ) -> Iterator[Tuple[List[int], float]]:
        """The round's refine waves: the whole chunk at the frozen
        threshold.  ``retire(candidate, stage)`` charges a prune."""
        yield chunk, threshold

    def offer(self, candidate: int, outcome) -> None:
        """Merge one verified outcome into the result (commutative)."""
        if self.result is not None and outcome[0] == "d":
            self.result.offer(candidate, float(outcome[1]))

    def note(self, stats: SearchStats, candidate: int, outcome) -> None:
        """Account one outcome; called in global chunk order."""
        kind, payload = outcome
        if kind == "p":
            stats.credit(self.names[int(payload)])
            return
        stats.true_distance_computations += 1
        distance = float(payload)
        if np.isfinite(distance):
            for query_pruner in self.query_pruners:
                query_pruner.record(candidate, distance)
            if self.radius is not None and distance <= self.radius:
                self.hits.append(Neighbor(candidate, distance))

    def answer(self) -> list:
        if self.result is None:
            return sorted(self.hits, key=lambda neighbor: neighbor.index)
        return self.result.neighbors()


def round_stats(route: _Route, starts: Sequence[int]) -> List[SearchStats]:
    """Fresh per-shard stats for the shards ``[starts[s], starts[s+1])``."""
    per_shard: List[SearchStats] = []
    for start, stop in zip(starts[:-1], starts[1:]):
        shard_stats = SearchStats(database_size=int(stop) - int(start))
        if route.weights is not None:
            shard_stats.windows_total = int(route.weights[start:stop].sum())
            shard_stats.kernel = route.kernel
        per_shard.append(shard_stats)
    return per_shard


def run_rounds(
    route: _Route,
    owners: np.ndarray,
    per_shard: List[SearchStats],
    round_size: int,
    execute: Callable[[_Route, Dict[int, List[int]], float], Dict[int, list]],
) -> int:
    """Walk ``route``'s visit order in frozen-threshold rounds.

    ``owners[c]`` is candidate ``c``'s shard and ``per_shard`` its stats;
    prunes and outcomes are charged to the owner's stats.  Each refine
    phase calls ``execute(route, groups, threshold)``: ``groups`` maps a
    shard to its members (in visit order), and the executor offers every
    outcome into the route and returns each shard's outcomes, aligned
    with its members.  Returns the number of rounds that refined
    anything.
    """
    total = len(owners)
    names = route.names
    weights = route.weights
    order = np.argsort(route.order_keys, kind="stable")

    def retire(candidate: int, stage: str) -> None:
        shard_stats = per_shard[int(owners[candidate])]
        shard_stats.credit(stage)
        if weights is not None:
            shard_stats.windows_pruned += int(weights[candidate])

    position_in_order = 0
    rounds = 0
    while position_in_order < total:
        threshold = route.threshold()
        finite = np.isfinite(threshold)
        chunk: List[int] = []
        while position_in_order < total and len(chunk) < round_size:
            candidate = int(order[position_in_order])
            if finite and names:
                if route.order_keys[candidate] > threshold:
                    # Sorted break: every remaining ordered bound also
                    # exceeds the frozen threshold, retiring the
                    # remaining candidates and all their windows.
                    remaining = order[position_in_order:]
                    for shard_id, shard_stats in enumerate(per_shard):
                        retired = remaining[owners[remaining] == shard_id]
                        if retired.size:
                            shard_stats.pruned_by[names[0]] = (
                                shard_stats.pruned_by.get(names[0], 0) + int(retired.size)
                            )
                            if weights is not None:
                                shard_stats.windows_pruned += int(weights[retired].sum())
                    position_in_order = total
                    break
                pruned_at = route.pruned_at(candidate, threshold)
                if pruned_at is not None:
                    retire(candidate, names[pruned_at])
                    position_in_order += 1
                    continue
            chunk.append(candidate)
            position_in_order += 1
        if not chunk:
            continue
        rounds += 1

        for members, phase_threshold in route.phases(chunk, threshold, retire):
            groups: Dict[int, List[int]] = {}
            for candidate in members:
                groups.setdefault(int(owners[candidate]), []).append(candidate)
            outcomes = {
                shard_id: iter(shard_outcomes)
                for shard_id, shard_outcomes in execute(
                    route, groups, phase_threshold
                ).items()
            }
            # Deterministic pass in global member order: stats, range
            # hits, and dynamic-pruner records all follow the
            # partition-independent order, not completion order.
            for candidate in members:
                shard_id = int(owners[candidate])
                route.note(per_shard[shard_id], candidate, next(outcomes[shard_id]))
    return rounds
