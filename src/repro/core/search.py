"""Exact k-NN search over EDR with the paper's pruning methods.

All engines return the same answers as a sequential scan (the
no-false-dismissal guarantee of Section 4); they differ in how many true
EDR computations they avoid and therefore in speed.  Each engine reports
a :class:`SearchStats` with the two quantities the paper's experiments
measure: *pruning power* (fraction of database trajectories whose true
distance was never computed) and wall-clock time (from which the bench
harness derives *speedup ratio* against the sequential scan).

The pruning methods share one interface: a :class:`Pruner` bound to a
database produces, per query, a :class:`QueryPruner` exposing
``lower_bound(candidate_index)``; a candidate is skipped when its lower
bound exceeds the current k-th best distance.  Three pruner families are
provided (histograms, mean-value Q-grams, near triangle inequality) plus
two specialized engines: :func:`knn_sorted_scan` (the paper's HSR —
visit candidates in ascending lower-bound order and stop at the first
bound that cannot beat the k-th distance) and :func:`knn_qgram_index`
(Figure 3 — probe a Q-gram index, then visit candidates in descending
common-count order).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..index.mergejoin import (
    bulk_count_common,
    count_common_sorted_1d,
    count_common_sorted_2d,
    sort_means_1d,
    sort_means_2d,
)
from .database import TrajectoryDatabase
from .edr import edr
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE
from .edr_bitparallel import edr_bitparallel
from .histogram import HistogramMatcher
from .kernels import check_kernel_choice, length_bucket, run_kernel
from .neartriangle import NearTrianglePruner as _NearTriangleState
from .qgram import mean_rounding_magnitude, mean_value_qgrams, qgram_match_tolerance
from .trajectory import Trajectory

__all__ = [
    "Neighbor",
    "SearchStats",
    "SearchResult",
    "Pruner",
    "QueryPruner",
    "HistogramPruner",
    "QgramMergeJoinPruner",
    "QgramIndexPruner",
    "NearTrianglePruning",
    "knn_scan",
    "knn_search",
    "knn_sorted_scan",
    "knn_sorted_search",
    "knn_qgram_index",
]


@dataclass(frozen=True)
class Neighbor:
    """One k-NN answer: database index and its true EDR distance."""

    index: int
    distance: float


@dataclass
class SearchStats:
    """Counters for one k-NN query, in the paper's Section 5 vocabulary.

    ``start_method`` is set by engines that ran (part of) the query on a
    process pool: the multiprocessing start method the pool used, so
    performance numbers are attributable (fork inherits state; spawn
    pickles it per worker).  ``None`` means the query ran in-process.
    """

    database_size: int
    true_distance_computations: int = 0
    pruned_by: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    start_method: Optional[str] = None
    # Refine-kernel attribution: the kernel that refined, and per-kernel
    # DP cell counts and seconds (throughput = cells / seconds).  Purely
    # observational — every kernel returns byte-identical distances.
    kernel: Optional[str] = None
    kernel_cells: Dict[str, int] = field(default_factory=dict)
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    # Tiered-storage attribution (PR 7): bytes of columnar filter
    # artifacts actually touched, physical pages read through the buffer
    # pool, and the pool's hit/miss/eviction tallies for this query.
    # All zero for fully in-memory engines.
    bytes_touched: int = 0
    pages_read: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    # Block-skipping sorted access (tiered stores): skip blocks whose
    # summary bound was evaluated vs. blocks whose rows were faulted in.
    blocks_total: int = 0
    blocks_opened: int = 0
    # Subtrajectory (windowed) search accounting: how many banded
    # windows the query defined over the database, how many had their
    # exact distance computed, how many a window-sound pruner bound
    # retired wholesale, and how many the row DP proved farther than the
    # frozen threshold.  The four satisfy
    # ``evaluated + pruned + abandoned == total`` and are byte-identical
    # across the serial/sharded/tiered engines (frozen-round thresholds,
    # batch-independent row DP).  All zero for whole-trajectory queries.
    windows_total: int = 0
    windows_evaluated: int = 0
    windows_pruned: int = 0
    windows_abandoned: int = 0

    @property
    def pool_hit_rate(self) -> float:
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    @property
    def pruning_power(self) -> float:
        """Fraction of trajectories whose true EDR was never computed."""
        if self.database_size == 0:
            return 0.0
        avoided = self.database_size - self.true_distance_computations
        return avoided / self.database_size

    def credit(self, pruner_name: str) -> None:
        self.pruned_by[pruner_name] = self.pruned_by.get(pruner_name, 0) + 1

    def note_kernel(self, kernel: str, cells: int, seconds: float) -> None:
        """Attribute one refine call's DP volume to its kernel."""
        self.kernel_cells[kernel] = self.kernel_cells.get(kernel, 0) + int(cells)
        self.kernel_seconds[kernel] = (
            self.kernel_seconds.get(kernel, 0.0) + float(seconds)
        )


SearchResult = Tuple[List[Neighbor], SearchStats]


class _ResultList:
    """The paper's ``result`` array: k best (index, distance), sorted.

    Ties are broken *canonically* on the database index: the list holds
    the k smallest ``(distance, index)`` pairs, regardless of the order
    offers arrive in.  This makes the k-NN answer a pure function of the
    candidate distances — every engine (database-order scan, sorted
    scan, the sharded round engine merging shard results concurrently)
    returns byte-for-byte the same neighbors, which is what lets the
    sharded engine assert exact equality against the serial one.
    Exactness is unaffected: engines prune on ``bound > best_so_far``
    (strictly), so an equal-distance candidate that could displace a
    larger-index member is never pruned away.

    Each entry stores the caller's ``item`` — a :class:`Neighbor` by
    default, a :class:`~repro.core.subtrajectory.WindowMatch` for the
    best-window search, where each trajectory offers at most its one
    best window, so the index still disambiguates distance ties.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._items: list = []
        self._keys: List[Tuple[float, int]] = []  # parallel bisect keys

    @property
    def best_so_far(self) -> float:
        """The current k-th distance — infinite until k answers exist."""
        if len(self._items) < self.k:
            return float("inf")
        return self._keys[-1][0]

    def offer(self, index: int, distance: float, item=None) -> None:
        if not np.isfinite(distance):
            return
        key = (distance, index)
        if len(self._items) >= self.k and key >= self._keys[-1]:
            return
        position = bisect_right(self._keys, key)
        self._items.insert(
            position, Neighbor(index, distance) if item is None else item
        )
        self._keys.insert(position, key)
        del self._items[self.k :]
        del self._keys[self.k :]

    def fills(self, pending: int) -> bool:
        """Whether ``pending`` more answers would complete the k."""
        return len(self._items) + pending >= self.k

    def neighbors(self) -> list:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class _RadiusList:
    """The range query's result: every candidate within ``radius``.

    The threshold the loop prunes against is the radius itself and never
    moves; the answers come back in index order, whatever order the
    refine batches offered them in.
    """

    def __init__(self, radius: float) -> None:
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        self.best_so_far = radius
        self._items: List[Neighbor] = []

    def offer(self, index: int, distance: float) -> None:
        if distance <= self.best_so_far and np.isfinite(distance):
            self._items.append(Neighbor(index, distance))

    def fills(self, pending: int) -> bool:
        return False  # no answer moves the threshold

    def neighbors(self) -> List[Neighbor]:
        return sorted(self._items, key=lambda neighbor: neighbor.index)


_INF = float("inf")


# ----------------------------------------------------------------------
# Pruner interface and implementations
# ----------------------------------------------------------------------
class QueryPruner:
    """Per-query pruning state; see :class:`Pruner`.

    Besides the scalar per-candidate bounds, every query pruner exposes
    *bulk* kernels that evaluate the bound for the whole database in one
    vectorized call.  The bulk values are exactly equal to the scalar
    ones (the property-based test suite asserts it per pruner family),
    so engines may freely mix the two paths without changing answers.

    Two class attributes describe the pruner to the engines:

    ``dynamic``
        True when the bound can *tighten during a scan* (near triangle
        inequality records true distances as it goes).  Engines must not
        cache a dynamic pruner's bulk arrays across candidates.
    ``two_stage``
        True when :meth:`exact_lower_bound` is strictly stronger (and
        more expensive) than :meth:`quick_lower_bound`; engines consult
        the quick bound first and pay the exact bound only when the
        quick bound fails to prune.
    ``subset_bounds``
        True when :meth:`bulk_quick_lower_bounds` takes ``rows`` and
        costs in proportion to them, so engines may fill the array only
        for the rows that can still consult it.
    ``exact_stage_cheap``
        Cost class of :meth:`exact_lower_bound` relative to one batched
        EDR verification.  False marks exact stages that cost about as
        much as the refinement they try to avoid: the 2-D histogram
        bound's matcher takes ~45 µs per candidate against ~37 µs for
        one bit-parallel EDR row on the 1.2k perfbench corpus.
        Cost-aware engines may then skip the exact stage and verify
        directly — a pure scheduling choice that never changes answers,
        only which stage pays for the candidate.
    """

    name: str = "base"
    database_size: int = 0
    dynamic: bool = False
    two_stage: bool = False
    subset_bounds: bool = False
    exact_stage_cheap: bool = True

    def lower_bound(
        self, candidate_index: int, threshold: float = float("inf")
    ) -> float:
        """A proven lower bound of ``EDR(query, candidate)``.

        ``threshold`` is the value the caller will compare against (the
        current k-th best distance, or a range radius).  Pruners with a
        cheap-but-weak bound may return it as soon as it already exceeds
        the threshold, skipping their expensive exact bound; any
        returned value must still be a sound lower bound.
        """
        raise NotImplementedError

    def record(self, candidate_index: int, true_distance: float) -> None:
        """Hook called after a true distance is computed (NTI uses it)."""

    def quick_lower_bound(self, candidate_index: int) -> float:
        """A cheaper (possibly weaker) sound lower bound.

        Sorted-access engines use it to order candidates without paying
        the exact bound for the whole database; the default simply
        defers to :meth:`lower_bound`.
        """
        return self.lower_bound(candidate_index)

    def exact_lower_bound(self, candidate_index: int) -> float:
        """The pruner's strongest bound, with no threshold short-cut."""
        return self.lower_bound(candidate_index)

    def exact_ceiling(self, candidate_index: int) -> float:
        """An upper bound of :meth:`exact_lower_bound`, or +inf if none is
        known.  Where it is <= the threshold the exact stage cannot
        prune, so engines skip it."""
        return float("inf")

    def bulk_quick_lower_bounds(
        self, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`quick_lower_bound` for every candidate, vectorized.

        With ``rows`` (an index array) only those candidates, in that
        order, bit for bit the same as ``bulk_quick_lower_bounds()[rows]``.
        The default loops the scalar method, so third-party pruners keep
        working; the built-in families override it with array kernels.
        """
        if rows is None:
            rows = range(self.database_size)
        return np.array(
            [self.quick_lower_bound(int(candidate)) for candidate in rows],
            dtype=np.float64,
        )

    def bulk_lower_bounds(self, threshold: float = float("inf")) -> np.ndarray:
        """:meth:`lower_bound` for every candidate, vectorized.

        Sound lower bounds for the whole database in one call, with the
        same staged semantics as the scalar method: entries whose quick
        bound already exceeds ``threshold`` may carry the quick value
        instead of the exact one.  Exact-equivalent to the scalar path.
        """
        return np.array(
            [
                self.lower_bound(candidate_index, threshold)
                for candidate_index in range(self.database_size)
            ],
            dtype=np.float64,
        )

    def window_lower_bound(self, candidate_index: int) -> float:
        """A bound on ``EDR(query, w)`` valid for *every* window ``w``.

        Whole-trajectory lower bounds do not transfer to windows (a
        window can be far closer than its trajectory), so the
        subtrajectory engine consults this dedicated bound instead: one
        value per trajectory proven to undercut the distance of each of
        its contiguous windows, making a single comparison against the
        k-th best window distance prune all windows at once.  The
        default is the trivial (always sound) zero; families with a
        window-monotone summary override it.
        """
        return 0.0

    def bulk_window_lower_bounds(self) -> np.ndarray:
        """:meth:`window_lower_bound` for every candidate, vectorized."""
        return np.array(
            [
                self.window_lower_bound(candidate_index)
                for candidate_index in range(self.database_size)
            ],
            dtype=np.float64,
        )


class Pruner:
    """A pruning method bound to a database.

    ``for_query`` performs the per-query precomputation (query histogram,
    query Q-gram means, index probes...) and returns a
    :class:`QueryPruner` whose ``lower_bound`` is consulted per candidate.
    """

    name: str = "base"

    def for_query(self, query: Trajectory) -> QueryPruner:
        raise NotImplementedError


class _HistogramQuery(QueryPruner):
    two_stage = True
    subset_bounds = True

    def __init__(
        self,
        name: str,
        query_histograms: List[dict],
        database_histograms: List[List[dict]],
        array_stores: Optional[List] = None,
    ) -> None:
        self.name = name
        self._query = query_histograms
        self._matchers = [HistogramMatcher(h) for h in query_histograms]
        self._database = database_histograms
        self._stores = array_stores
        self._probes: Optional[List] = None
        self.database_size = len(database_histograms[0])
        # Ceilings of the exact bound, known for the rows a bulk quick
        # pass has covered (+inf elsewhere: no ceiling known).
        self._ceilings = np.full(self.database_size, np.inf)
        # 1-D bins take the exact line greedy; d-D bins run the
        # matcher's augmenting paths, about one batched EDR row each.
        self.exact_stage_cheap = all(
            len(next(iter(histogram), (0,))) == 1
            for histogram in query_histograms
        )

    def lower_bound(
        self, candidate_index: int, threshold: float = float("inf")
    ) -> float:
        # Stage 1: the cheap neighbourhood bound — when it already beats
        # the threshold the exact flow computation is unnecessary.
        if np.isfinite(threshold):
            quick = self.quick_lower_bound(candidate_index)
            if quick > threshold:
                return quick
        # Stage 2: the exact HD.  With several projections (the 1-D
        # per-axis variant) every HD is a lower bound, so the max is the
        # tightest combination.
        return self.exact_lower_bound(candidate_index)

    def quick_lower_bound(self, candidate_index: int) -> float:
        return float(
            max(
                matcher.quick_distance(per_axis[candidate_index])
                for matcher, per_axis in zip(self._matchers, self._database)
            )
        )

    def exact_lower_bound(self, candidate_index: int) -> float:
        return float(
            max(
                matcher.distance(per_axis[candidate_index])
                for matcher, per_axis in zip(self._matchers, self._database)
            )
        )

    def exact_ceiling(self, candidate_index: int) -> float:
        return self._ceilings[candidate_index]

    def bulk_quick_lower_bounds(
        self, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self._stores is None:
            return super().bulk_quick_lower_bounds(rows)
        if self._probes is None:
            self._probes = [
                store.query_probe(query_histogram)
                for query_histogram, store in zip(self._query, self._stores)
            ]
        # Per-axis HDs combine by max, so do their quick bounds and
        # their ceilings.
        quick, ceilings = self._stores[0].probe_rows(self._probes[0], rows)
        for probe, store in zip(self._probes[1:], self._stores[1:]):
            axis_quick, axis_ceilings = store.probe_rows(probe, rows)
            np.maximum(quick, axis_quick, out=quick)
            np.maximum(ceilings, axis_ceilings, out=ceilings)
        self._ceilings[slice(None) if rows is None else rows] = ceilings
        return quick.astype(np.float64)

    def bulk_lower_bounds(self, threshold: float = float("inf")) -> np.ndarray:
        bounds = self.bulk_quick_lower_bounds()
        if np.isfinite(threshold):
            survivors = np.nonzero(bounds <= threshold)[0]
        else:
            survivors = np.arange(self.database_size)
        for candidate_index in map(int, survivors):
            bounds[candidate_index] = self.exact_lower_bound(candidate_index)
        return bounds

    def window_lower_bound(self, candidate_index: int) -> float:
        # A window's histogram is elementwise dominated by its
        # trajectory's, so the query-side matchable-mass cap against the
        # whole trajectory upper-bounds matches against any window — and
        # each axis bounds alone, so the per-axis max stays sound.
        return float(
            max(
                matcher.window_bound(per_axis[candidate_index])
                for matcher, per_axis in zip(self._matchers, self._database)
            )
        )

    def bulk_window_lower_bounds(self) -> np.ndarray:
        if self._stores is None:
            return super().bulk_window_lower_bounds()
        bounds = self._stores[0].bulk_window_bounds(self._query[0])
        for query_histogram, store in zip(self._query[1:], self._stores[1:]):
            np.maximum(
                bounds, store.bulk_window_bounds(query_histogram), out=bounds
            )
        return bounds.astype(np.float64)


class HistogramPruner(Pruner):
    """Trajectory-histogram pruning (Section 4.3).

    ``delta`` scales the bin size to δ·ε (the paper's 2HE/2H2E/... series);
    ``per_axis=True`` switches to the 1-D per-axis histograms of
    Corollary 1 (the paper's 1HE), taking the max of the per-axis HDs.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        delta: float = 1.0,
        per_axis: bool = False,
    ) -> None:
        self._database = database
        self._delta = float(delta)
        self._per_axis = per_axis
        if per_axis:
            self.name = f"histogram-1d(delta={delta:g})"
            self._variants = [
                database.histograms(delta=delta, axis=axis)
                for axis in range(database.ndim)
            ]
            self._stores = [
                database.histogram_arrays(delta=delta, axis=axis)
                for axis in range(database.ndim)
            ]
        else:
            self.name = f"histogram-2d(delta={delta:g})"
            self._variants = [database.histograms(delta=delta)]
            self._stores = [database.histogram_arrays(delta=delta)]

    def for_query(self, query: Trajectory) -> QueryPruner:
        query_histograms = []
        database_histograms = []
        for axis, (space, built) in enumerate(self._variants):
            projected = query.projection(axis) if self._per_axis else query
            query_histograms.append(space.histogram(projected))
            database_histograms.append(built)
        return _HistogramQuery(
            self.name, query_histograms, database_histograms, self._stores
        )


class _QgramMergeJoinQuery(QueryPruner):
    subset_bounds = True

    def __init__(
        self,
        name: str,
        query_sorted: np.ndarray,
        candidates_sorted: List[np.ndarray],
        query_length: int,
        lengths: np.ndarray,
        q: int,
        epsilon: float,
        two_dimensional: bool,
        flat_pool: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.name = name
        self._query_sorted = query_sorted
        self._candidates = candidates_sorted
        self._query_length = query_length
        self._lengths = lengths
        self._q = q
        self._epsilon = epsilon
        self._two_dimensional = two_dimensional
        self._flat_pool = flat_pool
        self._bulk_bounds: Optional[np.ndarray] = None
        self._bulk_common: Optional[np.ndarray] = None
        self.database_size = len(candidates_sorted)

    def _common(self, candidate_index: int) -> int:
        candidate = self._candidates[candidate_index]
        if self._two_dimensional:
            return count_common_sorted_2d(
                self._query_sorted, candidate, self._epsilon
            )
        return count_common_sorted_1d(
            self._query_sorted, candidate, self._epsilon
        )

    def lower_bound(
        self, candidate_index: int, threshold: float = float("inf")
    ) -> float:
        common = self._common(candidate_index)
        longest = max(self._query_length, int(self._lengths[candidate_index]))
        # Theorem 1 rearranged: EDR >= (max(m, n) - q + 1 - common) / q.
        return max(0.0, (longest - self._q + 1 - common) / self._q)

    def _common_counts(self) -> np.ndarray:
        """Merge-join common counts against the whole pool, cached."""
        if self._bulk_common is None:
            pool_values, pool_owners = self._flat_pool
            self._bulk_common = bulk_count_common(
                self._query_sorted,
                pool_values,
                pool_owners,
                self.database_size,
                self._epsilon,
            )
        return self._bulk_common

    def _subset_common_counts(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`_common_counts` of ``rows`` (distinct), from the pool
        entries those rows own: the same windows, bit for bit."""
        pool_values, pool_owners = self._flat_pool
        wanted = np.zeros(self.database_size, dtype=bool)
        wanted[rows] = True
        entries = np.flatnonzero(wanted.take(pool_owners))
        slots = np.empty(self.database_size, dtype=np.int64)
        slots[rows] = np.arange(len(rows))
        return bulk_count_common(
            self._query_sorted,
            pool_values.take(entries, axis=0),
            slots.take(pool_owners.take(entries)),
            len(rows),
            self._epsilon,
        )

    def bulk_lower_bounds(self, threshold: float = float("inf")) -> np.ndarray:
        if self._bulk_bounds is not None:
            return self._bulk_bounds.copy()
        if self._flat_pool is None:
            bounds = super().bulk_lower_bounds(threshold)
            self._bulk_bounds = bounds.copy()
            return bounds
        bounds = self._theorem_1(self._common_counts(), self._lengths)
        self._bulk_bounds = bounds
        return bounds.copy()

    def _theorem_1(self, common: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Theorem 1 vectorized: ``(max(m, n) - q + 1 - common) / q``, >= 0."""
        longest = np.maximum(self._query_length, lengths.astype(np.int64))
        return np.maximum(0.0, (longest - self._q + 1 - common) / self._q)

    def bulk_quick_lower_bounds(
        self, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if rows is None:
            return self.bulk_lower_bounds()
        if self._flat_pool is None:
            return super().bulk_quick_lower_bounds(rows)
        return self._theorem_1(self._subset_common_counts(rows), self._lengths[rows])

    def window_lower_bound(self, candidate_index: int) -> float:
        # A window's Q-grams are a sub-multiset of its trajectory's, so
        # ``common(query, window) <= common(query, trajectory)``; with
        # ``max(m, |window|) >= m`` Theorem 1 becomes a bound every
        # window of the candidate satisfies.
        common = self._common(candidate_index)
        return max(
            0.0, (self._query_length - self._q + 1 - common) / self._q
        )

    def bulk_window_lower_bounds(self) -> np.ndarray:
        if self._flat_pool is None:
            return super().bulk_window_lower_bounds()
        common = self._common_counts()
        return np.maximum(
            0.0, (self._query_length - self._q + 1 - common) / self._q
        )


def _corpus_rounding_magnitude(database: TrajectoryDatabase, q: int) -> float:
    """The corpus side of a Q-gram pruner's mean-rounding magnitude."""
    # q = 1 compares at exactly epsilon, so skip the corpus pass.
    return 0.0 if q == 1 else mean_rounding_magnitude(database.trajectories)


def _query_match_tolerance(
    epsilon: float, q: int, corpus_magnitude: float, query: Trajectory
) -> float:
    """The threshold a query's means are matched at: ε widened by the
    rounding budget of both sides (exactly ε at ``q = 1``)."""
    magnitude = max(corpus_magnitude, mean_rounding_magnitude([query]))
    return qgram_match_tolerance(epsilon, q, magnitude)


class QgramMergeJoinPruner(Pruner):
    """Mean-value Q-gram pruning via merge join — PS2 (2-D) / PS1 (1-D)."""

    def __init__(
        self,
        database: TrajectoryDatabase,
        q: int = 1,
        two_dimensional: bool = True,
        axis: int = 0,
    ) -> None:
        self._database = database
        self._q = q
        self._two_dimensional = two_dimensional
        self._axis = axis
        if two_dimensional:
            self.name = f"qgram-ps2(q={q})"
            self._candidates = database.sorted_qgram_means(q)
            self._flat_pool = database.flat_qgram_means(q)
        else:
            self.name = f"qgram-ps1(q={q})"
            self._candidates = database.sorted_qgram_means_1d(q, axis)
            self._flat_pool = database.flat_qgram_means_1d(q, axis)
        self._magnitude = _corpus_rounding_magnitude(database, q)

    def match_tolerance(self, query: Trajectory) -> float:
        """The threshold this query's means are compared at (see
        :func:`~repro.core.qgram.qgram_match_tolerance`)."""
        return _query_match_tolerance(
            self._database.epsilon, self._q, self._magnitude, query
        )

    def for_query(self, query: Trajectory) -> QueryPruner:
        if self._two_dimensional:
            query_sorted = sort_means_2d(mean_value_qgrams(query, self._q))
        else:
            query_sorted = sort_means_1d(
                mean_value_qgrams(query.projection(self._axis), self._q)
            )
        return _QgramMergeJoinQuery(
            self.name,
            query_sorted,
            self._candidates,
            len(query),
            self._database.lengths,
            self._q,
            self.match_tolerance(query),
            self._two_dimensional,
            self._flat_pool,
        )


class _QgramIndexQuery(QueryPruner):
    def __init__(
        self,
        name: str,
        counters: np.ndarray,
        query_length: int,
        lengths: np.ndarray,
        q: int,
    ) -> None:
        self.name = name
        self.counters = counters
        self._query_length = query_length
        self._lengths = lengths
        self._q = q
        self.database_size = len(lengths)

    def lower_bound(
        self, candidate_index: int, threshold: float = float("inf")
    ) -> float:
        common = int(self.counters[candidate_index])
        longest = max(self._query_length, int(self._lengths[candidate_index]))
        return max(0.0, (longest - self._q + 1 - common) / self._q)

    def bulk_lower_bounds(self, threshold: float = float("inf")) -> np.ndarray:
        # Theorem 1 vectorized over the per-trajectory common counters.
        longest = np.maximum(self._query_length, self._lengths.astype(np.int64))
        return np.maximum(
            0.0, (longest - self._q + 1 - self.counters.astype(np.int64)) / self._q
        )

    def bulk_quick_lower_bounds(self) -> np.ndarray:
        return self.bulk_lower_bounds()

    def window_lower_bound(self, candidate_index: int) -> float:
        # The probe counters count query Q-grams matched anywhere in the
        # trajectory, an upper bound on matches inside any window — the
        # same sub-multiset argument as the merge-join family.
        common = int(self.counters[candidate_index])
        return max(
            0.0, (self._query_length - self._q + 1 - common) / self._q
        )

    def bulk_window_lower_bounds(self) -> np.ndarray:
        return np.maximum(
            0.0,
            (self._query_length - self._q + 1 - self.counters.astype(np.int64))
            / self._q,
        )


class QgramIndexPruner(Pruner):
    """Mean-value Q-gram pruning via index probes — PR (R-tree) / PB (B+-tree).

    ``for_query`` probes the index once per query Q-gram and accumulates
    per-trajectory common counters (each query Q-gram counts one match
    per trajectory at most), after which the lower bound is O(1) per
    candidate.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        q: int = 1,
        structure: str = "rtree",
        axis: int = 0,
    ) -> None:
        if structure not in ("rtree", "bptree"):
            raise ValueError("structure must be 'rtree' or 'bptree'")
        self._database = database
        self._q = q
        self._structure = structure
        self._axis = axis
        self.name = f"qgram-{'pr' if structure == 'rtree' else 'pb'}(q={q})"
        if structure == "rtree":
            self._index = database.qgram_rtree(q)
        else:
            self._index = database.qgram_bptree(q, axis)
        self._magnitude = _corpus_rounding_magnitude(database, q)

    def for_query(self, query: Trajectory) -> QueryPruner:
        # Probe at the merge-join family's float-sound tolerance, so the
        # index finds every mean a rounding error pushed past ε.
        epsilon = _query_match_tolerance(
            self._database.epsilon, self._q, self._magnitude, query
        )
        if self._structure == "rtree":
            means = mean_value_qgrams(query, self._q)

            def probe(mean):
                return self._index.match_search(mean, epsilon)

        else:
            means = mean_value_qgrams(query.projection(self._axis), self._q).ravel()

            def probe(mean):
                return self._index.match_search(float(mean), epsilon)

        # Accumulate (probe, trajectory) hits and count each query Q-gram
        # once per trajectory with one deduplicated bincount instead of a
        # Python set per probe.
        hits: List[np.ndarray] = []
        database_size = len(self._database)
        for probe_number, mean in enumerate(means):
            matched = np.asarray(probe(mean), dtype=np.int64)
            if matched.size:
                hits.append(matched + probe_number * database_size)
        if hits:
            unique_pairs = np.unique(np.concatenate(hits))
            counters = np.bincount(
                unique_pairs % database_size, minlength=database_size
            )
        else:
            counters = np.zeros(database_size, dtype=np.int64)
        return _QgramIndexQuery(
            self.name, counters, len(query), self._database.lengths, self._q
        )


class _NearTriangleQuery(QueryPruner):
    dynamic = True

    def __init__(self, name: str, state: _NearTriangleState, lengths: np.ndarray):
        self.name = name
        self._state = state
        self._lengths = lengths
        self.database_size = len(lengths)

    def lower_bound(
        self, candidate_index: int, threshold: float = float("inf")
    ) -> float:
        return self._state.lower_bound(
            candidate_index, int(self._lengths[candidate_index])
        )

    def bulk_lower_bounds(self, threshold: float = float("inf")) -> np.ndarray:
        return self._state.bulk_lower_bounds(self._lengths)

    def bulk_quick_lower_bounds(self) -> np.ndarray:
        return self.bulk_lower_bounds()

    def record(self, candidate_index: int, true_distance: float) -> None:
        self._state.record(candidate_index, true_distance)


class NearTrianglePruning(Pruner):
    """Near-triangle-inequality pruning (Section 4.2, Theorem 5)."""

    def __init__(
        self,
        database: TrajectoryDatabase,
        max_triangle: int = 400,
        policy: str = "first",
        matrix_workers: Optional[int] = None,
    ) -> None:
        self._database = database
        self._max_triangle = max_triangle
        self.name = f"near-triangle(max={max_triangle}, {policy})"
        self._columns = database.reference_columns(
            max_triangle, policy=policy, workers=matrix_workers
        )

    def for_query(self, query: Trajectory) -> QueryPruner:
        state = _NearTriangleState(self._columns, self._max_triangle)
        return _NearTriangleQuery(self.name, state, self._database.lengths)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class _Chain:
    """The resident visit source: Figure 6's pruner chain over in-memory
    bound arrays, paying each filter stage only where it can still
    change a decision.

    :meth:`walk` visits the database in index order or, with ``sort``,
    in ascending order of the first pruner's quick bound (an *ordered*
    walk, which the loop ends at the first bound above the threshold).

    :meth:`pruner_for` names the first pruner, in chain order, that
    proves a candidate farther than the threshold: a dynamic pruner
    through ``lower_bound`` at its current state, a static one through
    its quick bound and then, if two-stage, its exact stage.  That is
    the decision of asking each pruner's scalar ``lower_bound``; only
    the cost differs.

    The first static pruner's quick bounds are computed for every row
    in one bulk call (the sorted walk's own bounds, when it has them).
    A later static pruner with ``subset_bounds`` is filled on demand:
    when a candidate first reads an unfilled row, the chain fills the
    next ``window`` rows of the visit order whose earlier static quick
    bounds are <= the threshold in force, stage by stage.  A k-NN
    threshold only falls, so every row consulted later is among them;
    any other unfilled row is computed when it is read.  Other pruners
    get one bulk call over every row.
    """

    def __init__(
        self,
        query_pruners: Sequence[QueryPruner],
        size: int,
        sort: bool = False,
        window: Optional[int] = None,
    ) -> None:
        self._pruners = list(query_pruners)
        self._size = size
        # Later stages fill windows of N/8 rows by default: about 8
        # fills per query in database order, few enough that their
        # fixed cost stays small.
        self._window = max(64, size // 8) if window is None else window
        self.ordered = sort
        self._order = self._bounds = None
        self._static = [
            stage for stage, pruner in enumerate(self._pruners) if not pruner.dynamic
        ]
        self._quick: Dict[int, np.ndarray] = {}
        self._filled: Dict[int, np.ndarray] = {}
        self._front = 0  # visit rank where the next window starts
        for stage in self._static[1:]:
            if self._pruners[stage].subset_bounds:
                self._quick[stage] = np.zeros(self._size)
                self._filled[stage] = np.zeros(self._size, dtype=bool)

    def walk(self, stats: SearchStats) -> Iterator[Tuple[int, float]]:
        """The visits ``(candidate_index, bound)``: ``bound`` is the
        sorted walk's quick bound, -inf in index order (the chain
        checks the first stage itself).  The sorted walk's O(N) bound
        pass and argsort run here, on the search's clock."""
        if not self.ordered:
            return zip(range(self._size), repeat(-_INF))
        # Quick bounds are sound, so the sorted break stays exact.
        self._bounds = np.asarray(
            self._pruners[0].bulk_quick_lower_bounds(), dtype=np.float64
        )
        self._order = np.argsort(self._bounds, kind="stable")
        if self._static[:1] == [0]:
            self._quick[0] = self._bounds
        return zip(self._order.tolist(), self._bounds[self._order].tolist())

    def _bulk(self, stage: int, rows: Optional[np.ndarray] = None) -> None:
        pruner = self._pruners[stage]
        if rows is None:  # pruners without subset_bounds take no rows
            bounds = pruner.bulk_quick_lower_bounds()
            self._quick[stage] = np.asarray(bounds, dtype=np.float64)
        else:
            self._quick[stage][rows] = pruner.bulk_quick_lower_bounds(rows)
            self._filled[stage][rows] = True

    def _fill(self, rank: int, threshold: float) -> None:
        stop = rank + self._window
        rows = (
            np.arange(rank, min(stop, self._size))
            if self._order is None
            else self._order[rank:stop]
        )
        self._front = stop
        for stage in self._static:
            filled = self._filled.get(stage)
            if filled is not None:
                need = rows[~filled[rows]]
                if len(need):
                    self._bulk(stage, need)
            elif stage not in self._quick:
                self._bulk(stage)
            rows = rows[self._quick[stage][rows] <= threshold]

    def _quick_bound(
        self, stage: int, candidate_index: int, rank: int, threshold: float
    ) -> float:
        filled = self._filled.get(stage)
        if filled is None:
            if stage not in self._quick:
                self._bulk(stage)
        elif not filled[candidate_index]:
            if rank >= self._front:
                self._fill(rank, threshold)
            if not filled[candidate_index]:
                self._bulk(stage, np.array([candidate_index]))
        return self._quick[stage][candidate_index]

    def pruner_for(
        self, candidate_index: int, rank: int, threshold: float
    ) -> Optional[QueryPruner]:
        """The pruner that prunes ``candidate_index`` (visited at ``rank``)
        at ``threshold``, or None when the candidate must be verified."""
        for stage, pruner in enumerate(self._pruners):
            if pruner.dynamic:
                if pruner.lower_bound(candidate_index, threshold) > threshold:
                    return pruner
            elif self._quick_bound(stage, candidate_index, rank, threshold) > threshold:
                return pruner
            elif (
                pruner.two_stage
                and pruner.exact_ceiling(candidate_index) > threshold
                and pruner.exact_lower_bound(candidate_index) > threshold
            ):
                return pruner
        return None


def _true_distance(
    database: TrajectoryDatabase,
    query: Trajectory,
    candidate_index: int,
    stats: SearchStats,
    bound: Optional[float] = None,
    kernel: Optional[str] = None,
) -> float:
    stats.true_distance_computations += 1
    candidate = database.trajectories[candidate_index]
    # Unbatched path: there is nothing to batch, so the kernel choice
    # only distinguishes the bit-parallel single-pair kernel from plain
    # ``edr`` (bit-identical results, sentinels included).
    if kernel == "bitparallel":
        executed, kernel_fn = "bitparallel", edr_bitparallel
    else:
        executed, kernel_fn = "scalar", edr
    start = time.perf_counter()
    distance = kernel_fn(query, candidate, database.epsilon, bound=bound)
    stats.note_kernel(
        executed, len(query) * len(candidate), time.perf_counter() - start
    )
    return distance


class _PendingBatches:
    """Length-bucketed buffer of candidates awaiting batched verification.

    Engines with batched refinement push surviving candidates here
    instead of paying a scalar ``edr`` call immediately.  Buckets group
    lengths by power of two, so one batch's shared padded width is less
    than twice any member's length; a bucket is handed back for
    verification the moment it reaches the batch size, and
    :meth:`drain` releases whatever remains at scan end.
    """

    def __init__(self, batch_size: int) -> None:
        self._batch_size = batch_size
        self._buckets: Dict[int, List[int]] = {}
        self.total = 0

    def add(self, candidate_index: int, length: int) -> Optional[List[int]]:
        """Buffer one candidate; return a full bucket if this filled it."""
        key = length_bucket(length)
        bucket = self._buckets.setdefault(key, [])
        bucket.append(candidate_index)
        self.total += 1
        if len(bucket) >= self._batch_size:
            del self._buckets[key]
            self.total -= len(bucket)
            return bucket
        return None

    def drain(self) -> List[List[int]]:
        """Hand back every pending bucket (shortest lengths first)."""
        buckets = [self._buckets[key] for key in sorted(self._buckets)]
        self._buckets = {}
        self.total = 0
        return buckets


def _refine_batch(
    database: TrajectoryDatabase,
    query: Trajectory,
    candidate_indices: List[int],
    result: Union[_ResultList, _RadiusList],
    stats: SearchStats,
    query_pruners: Sequence[QueryPruner],
    early_abandon: bool,
    kernel: str,
) -> None:
    """Verify one candidate batch with the named EDR kernel.

    Exactly equivalent to a loop of :func:`_true_distance` + ``record``
    + ``offer`` calls, except the k-th-best bound used for early
    abandoning is the one in force when the batch is flushed (it can
    only be looser than the scalar loop's per-candidate bound, so every
    abandonment stays sound).  Abandoned candidates count as true
    distance computations, matching the scalar early-abandon path.
    Every kernel returns the same distances and sentinels bit for bit,
    so ``kernel`` never changes answers or counters.
    """
    best = result.best_so_far
    bound = best if early_abandon and np.isfinite(best) else None
    candidates = database.rows(candidate_indices)
    start = time.perf_counter()
    distances = run_kernel(
        kernel, query, candidates, database.epsilon, bounds=bound
    )
    stats.note_kernel(
        kernel,
        len(query) * int(sum(len(candidate) for candidate in candidates)),
        time.perf_counter() - start,
    )
    stats.true_distance_computations += len(candidate_indices)
    for candidate_index, distance in zip(candidate_indices, distances):
        distance = float(distance)
        if np.isfinite(distance):
            for query_pruner in query_pruners:
                query_pruner.record(candidate_index, distance)
        result.offer(candidate_index, distance)


def _normalized_batch_size(refine_batch_size: Optional[int]) -> Optional[int]:
    """``None`` disables batching; so does any size that cannot batch."""
    if refine_batch_size is None or refine_batch_size <= 1:
        return None
    return int(refine_batch_size)


def knn_scan(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    edr_kernel: Optional[str] = None,
) -> SearchResult:
    """Sequential scan: the pruning-free baseline every speedup is measured against."""
    start = time.perf_counter()
    result = _ResultList(k)
    stats = SearchStats(database_size=len(database))
    stats.kernel = kernel = check_kernel_choice(edr_kernel)
    for candidate_index in range(len(database)):
        distance = _true_distance(
            database, query, candidate_index, stats, kernel=kernel
        )
        result.offer(candidate_index, distance)
    stats.elapsed_seconds = time.perf_counter() - start
    return result.neighbors(), stats


def knn_search(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    pruners: Sequence[Pruner],
    early_abandon: bool = False,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    edr_kernel: Optional[str] = None,
) -> SearchResult:
    """Sequential k-NN with a chain of pruners (Figure 6's skeleton).

    Candidates are visited in database order.  The first k candidates
    initialize the result with true distances; afterwards each pruner is
    consulted in the given order and the first one whose lower bound
    exceeds the current k-th distance prunes the candidate (and is
    credited in the stats).  With ``early_abandon=True`` the EDR dynamic
    program itself stops as soon as the k-th distance is unreachable;
    abandoned candidates still count as true-distance computations.

    ``refine_batch_size`` controls the refinement phase: surviving
    candidates accumulate into length-bucketed batches of this size and
    are verified together through the batched EDR kernel
    (:func:`~repro.core.edr_batch.edr_many`) — the answers are exactly
    the scalar loop's, but the per-candidate Python overhead is paid
    once per batch.  The k-th-best bound a batch sees is the one in
    force at flush time, so pruning decisions can only be more
    conservative than the scalar loop's (never unsound).  ``None`` (or
    any size below 2) restores the scalar per-candidate path.

    ``edr_kernel`` names the refine kernel (see
    :mod:`repro.core.kernels`); ``None`` runs the bit-parallel kernel.
    Answers and pruner counters are byte-for-byte identical for every
    choice.
    """
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    source = _Chain(query_pruners, len(database))
    return _knn(
        database, query, _ResultList(k), query_pruners, source,
        early_abandon, refine_batch_size, edr_kernel,
    )


def _knn(
    database: TrajectoryDatabase,
    query: Trajectory,
    result: Union[_ResultList, _RadiusList],
    query_pruners: List[QueryPruner],
    source,
    early_abandon: bool = False,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    edr_kernel: Optional[str] = None,
    started: Optional[float] = None,
) -> SearchResult:
    """Figure 6's filter-and-refine loop of the resident k-NN and range
    engines, of the tiered store's blocked ones and of the page store's
    ``disk_knn_search``.  (:func:`knn_qgram_index` keeps a loop of its
    own: its counter-floor break is not a ``bound > best`` break.)

    ``result`` is the result policy: a top-k :class:`_ResultList`, whose
    k-th distance is the threshold, or a :class:`_RadiusList`, whose
    threshold is the radius.  ``source`` is the visit source: resident
    arrays (:class:`_Chain`, which the page store extends to count the
    pages a prune avoids) or a tiered store's summary blocks.  Its
    ``walk(stats)`` yields ``(candidate_index, bound)``, where ``bound``
    is a sound lower bound from the first pruner (-inf when unknown);
    its ``pruner_for(candidate_index, rank, threshold)`` names the
    pruner that prunes a visit, or None.  A bound above the threshold
    ends an ``ordered`` walk, crediting every unvisited candidate to the
    first pruner (the sorted break), and prunes one visit of any other.

    ``elapsed_seconds`` runs from ``started`` when given: the range and
    blocked-store entries time their per-query pruner setup too.
    """
    start = time.perf_counter() if started is None else started
    size = len(database)
    stats = SearchStats(database_size=size)
    stats.kernel = kernel = check_kernel_choice(edr_kernel)
    pruner_for = source.pruner_for
    batch_size = _normalized_batch_size(refine_batch_size)
    pending = _PendingBatches(batch_size) if batch_size is not None else None

    def refine(batch: List[int]) -> None:
        _refine_batch(
            database, query, batch, result, stats,
            query_pruners, early_abandon, kernel,
        )

    for rank, (candidate_index, bound) in enumerate(source.walk(stats)):
        best = result.best_so_far
        if best < _INF:
            if bound > best:
                name = query_pruners[0].name
                if source.ordered:
                    # Sorted break: every remaining bound is at least this one.
                    stats.pruned_by[name] = stats.pruned_by.get(name, 0) + size - rank
                    break
                stats.credit(name)
                continue
            pruner = pruner_for(candidate_index, rank, best)
            if pruner is not None:
                stats.credit(pruner.name)
                continue
        if pending is None:
            abandon = best if early_abandon and best < _INF else None
            distance = _true_distance(
                database, query, candidate_index, stats, abandon, kernel
            )
            if np.isfinite(distance):
                for query_pruner in query_pruners:
                    query_pruner.record(candidate_index, distance)
            result.offer(candidate_index, distance)
            continue
        full_bucket = pending.add(
            candidate_index, int(database.lengths[candidate_index])
        )
        if full_bucket is not None:
            refine(full_bucket)
        elif best == _INF and result.fills(pending.total):
            # Seed the k-th-best bound as promptly as the scalar loop:
            # once enough candidates are pending to fill the result,
            # flush them so pruning can start firing.
            for bucket in pending.drain():
                refine(bucket)
    if pending is not None:
        for bucket in pending.drain():
            refine(bucket)
    stats.elapsed_seconds = time.perf_counter() - start
    return result.neighbors(), stats


def knn_sorted_scan(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    pruner: Pruner,
    early_abandon: bool = False,
    edr_kernel: Optional[str] = None,
) -> SearchResult:
    """Sorted scan (the paper's HSR): visit in ascending lower-bound order.

    The ordering pass uses the pruner's *quick* bound, computed for the
    whole database in one bulk kernel call: the quick bound is still a
    sound lower bound of EDR, so stopping at the first sorted bound that
    exceeds the current k-th distance remains exact, but the ordering no
    longer pays the expensive exact bound for every database member.
    Visited candidates of a two-stage pruner get the staged exact check
    before their true distance is computed, and a dynamic pruner is
    re-evaluated at its current state.  This is
    :func:`knn_sorted_search` with no secondary pruner and scalar
    refinement.
    """
    return knn_sorted_search(
        database, query, k, pruner, (), early_abandon, None, edr_kernel
    )


def knn_qgram_index(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    q: int = 1,
    structure: str = "rtree",
    axis: int = 0,
    edr_kernel: Optional[str] = None,
) -> SearchResult:
    """The Qgramk-NN-index algorithm of Figure 3.

    Probe the Q-gram index to build per-trajectory common counters, seed
    the result with the k highest-counter trajectories, then visit the
    rest in descending counter order, skipping candidates whose counter
    fails Theorem 1's bound.  The descending walk stops entirely once a
    counter falls below the *query-length-only* bound
    ``l_Q - q + 1 - bestSoFar*q``: that bound is a floor of every
    candidate's individual bound, so all remaining (smaller) counters
    must fail too — the length-safe version of the paper's line 16 break.
    """
    start = time.perf_counter()
    result = _ResultList(k)
    stats = SearchStats(database_size=len(database))
    stats.kernel = kernel = check_kernel_choice(edr_kernel)
    pruner = QgramIndexPruner(database, q=q, structure=structure, axis=axis)
    query_pruner = pruner.for_query(query)
    counters = query_pruner.counters
    bounds = query_pruner.bulk_lower_bounds()  # Theorem 1, vectorized
    order = np.argsort(-counters, kind="stable")

    for rank, candidate_index in enumerate(map(int, order)):
        best = result.best_so_far
        if np.isfinite(best):
            floor_bound = len(query) - q + 1 - best * q
            if counters[candidate_index] < floor_bound:
                remaining = len(order) - rank
                stats.pruned_by[query_pruner.name] = (
                    stats.pruned_by.get(query_pruner.name, 0) + remaining
                )
                break
            if bounds[candidate_index] > best:
                stats.credit(query_pruner.name)
                continue
        distance = _true_distance(
            database, query, candidate_index, stats, kernel=kernel
        )
        result.offer(candidate_index, distance)
    stats.elapsed_seconds = time.perf_counter() - start
    return result.neighbors(), stats


def knn_sorted_search(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    primary: Pruner,
    secondary: Sequence[Pruner] = (),
    early_abandon: bool = False,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    edr_kernel: Optional[str] = None,
) -> SearchResult:
    """Combined search with sorted access on the primary pruner.

    The paper's combined methods (Section 5.4) run the histogram stage
    in HSR form: all primary lower bounds are computed up front and
    candidates are visited in ascending order, so the scan stops at the
    first bound that cannot beat the k-th distance; the remaining
    pruners filter the candidates that are actually visited.  This is
    that engine with any pruner in the primary role.  Only the
    primary's quick bounds are computed for the whole database: a
    secondary's bounds are computed for the visited prefix, window by
    window, and a two-stage primary's exact stage only for visited
    candidates it can still prune.

    ``refine_batch_size`` batches the refinement phase exactly as in
    :func:`knn_search`: visited survivors are verified through the
    batched EDR kernel in length-bucketed groups, with the sorted break
    and all pruning checks unchanged.  ``None`` restores the scalar
    per-candidate verification.
    """
    query_pruners = [primary.for_query(query)]
    query_pruners += [pruner.for_query(query) for pruner in secondary]
    source = _Chain(query_pruners, len(database), sort=True)
    return _knn(
        database, query, _ResultList(k), query_pruners, source,
        early_abandon, refine_batch_size, edr_kernel,
    )
