"""Pruned k-NN search under LCSS — the paper's claimed extension.

Section 4 of the paper notes that "the pruning techniques that we
propose ... can also be applied to LCSS, the details are omitted due to
space limitation."  This module supplies those details.

LCSS is a *similarity* (higher is better), so a k-NN query asks for the
k candidates with the **largest** LCSS score, and pruning needs sound
**upper** bounds:

* **Histogram bound** — every ε-matching element pair lies in the same
  or adjacent histogram bins, so the maximum flow between the two full
  histograms along approximately-matching bins
  (:func:`repro.core.histogram.histogram_match_capacity`) upper-bounds
  the number of matchable pairs, hence LCSS.
* **Q-gram bound** — Theorem 1 lower-bounds EDR from the common Q-gram
  count: ``EDR >= (max(m,n) - q + 1 - common) / q``; combined with the
  coupling ``EDR <= m + n - 2*LCSS`` (delete the unmatched elements of
  both trajectories) this yields
  ``LCSS <= (m + n - max(0, (max(m,n) - q + 1 - common) / q)) / 2``.
* **Trivial bound** — ``LCSS <= min(m, n)``, applied for free.

A candidate is skipped when its upper bound is strictly below the
current k-th best score; answers are always scan-identical (the same
no-false-dismissal guarantee the EDR engines have).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..distances.lcss import lcss
from ..index.mergejoin import (
    count_common_sorted_2d,
    sort_means_2d,
)
from .database import TrajectoryDatabase
from .histogram import HistogramMatcher
from .qgram import mean_rounding_magnitude, mean_value_qgrams, qgram_match_tolerance
from .search import SearchStats
from .trajectory import Trajectory

__all__ = [
    "LcssMatch",
    "LcssHistogramBound",
    "LcssQgramBound",
    "knn_lcss_scan",
    "knn_lcss_search",
]


@dataclass(frozen=True)
class LcssMatch:
    """One LCSS k-NN answer: database index and its LCSS score."""

    index: int
    score: float


class LcssUpperBound:
    """Interface: per-query state exposing ``upper_bound(candidate_index)``."""

    name: str = "base"

    def for_query(self, query: Trajectory) -> "LcssUpperBound":
        raise NotImplementedError

    def upper_bound(self, candidate_index: int) -> float:
        raise NotImplementedError


class LcssHistogramBound(LcssUpperBound):
    """LCSS <= max matchable mass between the two trajectory histograms."""

    def __init__(self, database: TrajectoryDatabase, delta: float = 1.0) -> None:
        self._database = database
        self.name = f"lcss-histogram(delta={delta:g})"
        self._space, self._histograms = database.histograms(delta=delta)
        self._matcher = None

    def for_query(self, query: Trajectory) -> "LcssHistogramBound":
        bound = LcssHistogramBound.__new__(LcssHistogramBound)
        bound._database = self._database
        bound.name = self.name
        bound._space = self._space
        bound._histograms = self._histograms
        bound._matcher = HistogramMatcher(dict(self._space.counts(query)))
        return bound

    def upper_bound(self, candidate_index: int) -> float:
        return float(self._matcher.matchable(self._histograms[candidate_index]))


class LcssQgramBound(LcssUpperBound):
    """LCSS <= (m + n - EDR-lower-bound) / 2 from the common Q-gram count."""

    def __init__(self, database: TrajectoryDatabase, q: int = 1) -> None:
        self._database = database
        self._q = q
        self.name = f"lcss-qgram(q={q})"
        self._candidates = database.sorted_qgram_means(q)
        self._query_sorted = None
        self._query_length = 0
        self._magnitude = (
            0.0 if q == 1 else mean_rounding_magnitude(database.trajectories)
        )

    def for_query(self, query: Trajectory) -> "LcssQgramBound":
        bound = LcssQgramBound.__new__(LcssQgramBound)
        bound._database = self._database
        bound._q = self._q
        bound.name = self.name
        bound._candidates = self._candidates
        bound._query_sorted = sort_means_2d(mean_value_qgrams(query, self._q))
        bound._query_length = len(query)
        bound._tolerance = qgram_match_tolerance(
            self._database.epsilon,
            self._q,
            max(self._magnitude, mean_rounding_magnitude([query])),
        )
        return bound

    def upper_bound(self, candidate_index: int) -> float:
        candidate = self._candidates[candidate_index]
        common = count_common_sorted_2d(
            self._query_sorted, candidate, self._tolerance
        )
        m = self._query_length
        n = int(self._database.lengths[candidate_index])
        edr_floor = max(0.0, (max(m, n) - self._q + 1 - common) / self._q)
        return (m + n - edr_floor) / 2.0


class _LcssResultList:
    """k best (index, score) by descending score."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._items: List[LcssMatch] = []

    @property
    def worst_so_far(self) -> float:
        """The current k-th best score — -inf until k answers exist."""
        if len(self._items) < self.k:
            return float("-inf")
        return self._items[-1].score

    def offer(self, index: int, score: float) -> None:
        if len(self._items) >= self.k and score <= self.worst_so_far:
            return
        position = 0
        while position < len(self._items) and self._items[position].score >= score:
            position += 1
        self._items.insert(position, LcssMatch(index, score))
        del self._items[self.k :]

    def matches(self) -> List[LcssMatch]:
        return list(self._items)


def knn_lcss_scan(
    database: TrajectoryDatabase, query: Trajectory, k: int
) -> "tuple[List[LcssMatch], SearchStats]":
    """Sequential LCSS k-NN scan (most-similar-first), the baseline."""
    start = time.perf_counter()
    stats = SearchStats(database_size=len(database))
    result = _LcssResultList(k)
    for index in range(len(database)):
        stats.true_distance_computations += 1
        score = lcss(query, database.trajectories[index], database.epsilon)
        result.offer(index, score)
    stats.elapsed_seconds = time.perf_counter() - start
    return result.matches(), stats


def knn_lcss_search(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    bounds: Sequence[LcssUpperBound],
) -> "tuple[List[LcssMatch], SearchStats]":
    """LCSS k-NN with upper-bound pruning; scan-identical answers.

    Prunes a candidate when any bound (including the free
    ``min(m, n)`` length bound) is strictly below the current k-th best
    score — a candidate that could only tie can never displace an
    incumbent, so strict comparison is safe and prunes more.
    """
    start = time.perf_counter()
    stats = SearchStats(database_size=len(database))
    result = _LcssResultList(k)
    query_bounds = [bound.for_query(query) for bound in bounds]
    query_length = len(query)
    for index in range(len(database)):
        worst = result.worst_so_far
        if np.isfinite(worst):
            length_bound = min(query_length, int(database.lengths[index]))
            if length_bound < worst:
                stats.credit("lcss-length")
                continue
            pruned = False
            for query_bound in query_bounds:
                if query_bound.upper_bound(index) < worst:
                    stats.credit(query_bound.name)
                    pruned = True
                    break
            if pruned:
                continue
        stats.true_distance_computations += 1
        score = lcss(query, database.trajectories[index], database.epsilon)
        result.offer(index, score)
    stats.elapsed_seconds = time.perf_counter() - start
    return result.matches(), stats
