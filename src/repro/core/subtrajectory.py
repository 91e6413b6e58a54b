"""Subtrajectory similarity search: best-matching *window* per trajectory.

The whole-trajectory engines answer "which trajectories are close to the
query"; passively collected corpora more often need "where *inside* each
trajectory does the query appear" — the subtrajectory similarity search
of Koide et al. (arXiv:2006.05564), restated for EDR.  For a query ``Q``
of length ``m``, every contiguous window ``T[s:e]`` of a corpus
trajectory whose length falls in the band ``[m·(1-α), m·(1+α)]`` is a
candidate answer; :func:`subknn_search` returns the k windows of
smallest ``EDR(Q, T[s:e])``, at most one (the best) per trajectory.

Window enumeration shares DP rows instead of recomputing per window: for
a fixed start ``s``, one row DP over the suffix ``T[s:s+hi]`` yields
``EDR(Q, T[s:s+j])`` for *every* end simultaneously — after the ``m``-th
query row, column ``j`` of the DP holds exactly that prefix distance.
:func:`edr_windows_many` therefore stacks *(trajectory, start)* pairs as
the rows of one :func:`~repro.core.edr_batch.edr_many`-style batched
pass, so a band of width ``w`` costs one DP per start instead of ``w``.

Pruning reuses the bulk pruner kernels through *window-sound* bounds
(:meth:`~repro.core.search.QueryPruner.bulk_window_lower_bounds`): a
single per-trajectory value proven to lower-bound ``EDR(Q, w)`` for
every window ``w`` of that trajectory, so one comparison against the
current k-th best window distance prunes all of its windows at once.
Soundness per family (property-tested in
``tests/test_subtrajectory.py``):

* **Q-grams** — a window's Q-gram multiset is a sub-multiset of its
  trajectory's, so ``common(Q, w) <= common(Q, T)``; Theorem 1 with
  ``max(m, |w|) >= m`` gives ``EDR(Q, w) >= (m - q + 1 - common(Q, T)) / q``.
* **Histograms** — a window's histogram is elementwise dominated by its
  trajectory's, so the matchable-mass cap computed from the *query*
  side against the whole trajectory only grows:
  ``EDR(Q, w) >= HD(Q, w) >= m - matchable_upper(Q -> T)``
  (:func:`~repro.core.histogram.histogram_window_bound`).  The per-axis
  max of the 1-D variant stays sound because each axis bounds alone.
* **Near triangle inequality** — reference distances say nothing about
  windows, so the family contributes the trivial zero bound.
* **Free-start filter** (``pruned_by["free_start"]``, every engine, no
  pruner needed) — the bit-parallel kernel run with a free start,
  ``D[j, 0] = 0`` along the candidate, returns ``F = min over all
  windows w of EDR(Q, w)`` in ``O(m·⌈n/64⌉)`` word operations.  Sound:
  the banded windows are a subset of all windows, so ``F`` never
  exceeds the best banded one.  Exact below the band's length limit:
  ``EDR(Q, w) >= |m - |w||``, so ``F < min(m - lo + 1, hi + 1 - m)``
  forces the minimizing window into ``[lo, hi]`` and ``F`` *is* the
  best banded distance (property-tested in
  ``tests/test_free_start.py``).  It runs on each round's survivors of
  the bounds above (``_WindowRoute.phases``); the banded DP then runs
  only on candidates whose ``F`` does not exceed the threshold, and
  still owns every distance and the ``(start, end)`` tie-break.

Early abandoning stays per *row*: the masked row minimum exceeding the
frozen threshold proves every window at that start is farther (every DP
path to any final column crosses each row and step costs are
non-negative), and the batch compacts exactly like ``edr_many``.

Counter determinism: per-row DP results and free-start values are
independent of batch composition, and the threshold is frozen per
round phase (no cooperative mid-round tightening; the extra phase that
fills a not-yet-full result is chosen from the free-start values
alone), so ``windows_evaluated`` / ``windows_pruned`` /
``windows_abandoned`` are byte-identical across the serial, sharded, and
tiered engines — the invariant the differential fuzz suite asserts,
together with ``evaluated + pruned + abandoned == windows_total``.  The
serial and sharded engines share more than the rules: both run one
route (:func:`window_route`) through one loop
(:func:`~repro.core.rounds.run_rounds`) and one refine
(:func:`refine_windows`); only the round executor differs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .database import TrajectoryDatabase
from .edr import _points
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE, TrajectoryLike, iter_length_buckets
from .edr_bitparallel import edr_many_bitparallel
from .rounds import _Route, round_stats, run_rounds
from .search import Pruner, SearchStats, _ResultList
from .trajectory import Trajectory

__all__ = [
    "WindowMatch",
    "DEFAULT_WINDOW_ALPHA",
    "WINDOW_KERNEL",
    "FREE_START_STAGE",
    "resolve_window_range",
    "window_counts",
    "window_dp_cells",
    "edr_windows",
    "edr_windows_many",
    "refine_windows",
    "window_route",
    "subknn_search",
]

# Half-width of the relative window-length band: windows of length
# within ±25% of the query's are considered unless overridden.
DEFAULT_WINDOW_ALPHA = 0.25

# Kernel name the window DP reports through SearchStats.  The windowed
# pass is the batched (``edr_many``-family) kernel with per-start rows:
# it owns every answer's distance and its ``(start, end)`` tie-break.
# The bit-parallel kernel serves the free-start filter ahead of it
# (``_WindowRoute.phases``); it never materializes the per-start rows
# the per-end extraction needs, so it cannot replace the DP.
WINDOW_KERNEL = "windowed"

# ``pruned_by`` name of the free-start filter stage.
FREE_START_STAGE = "free_start"


class WindowMatch:
    """One subtrajectory answer: ``trajectory[start:end]`` at ``distance``."""

    __slots__ = ("index", "start", "end", "distance")

    def __init__(self, index: int, start: int, end: int, distance: float) -> None:
        self.index = int(index)
        self.start = int(start)
        self.end = int(end)
        self.distance = float(distance)

    def __repr__(self) -> str:
        return (
            f"WindowMatch(index={self.index}, start={self.start}, "
            f"end={self.end}, distance={self.distance})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowMatch):
            return NotImplemented
        return (self.index, self.start, self.end, self.distance) == (
            other.index,
            other.start,
            other.end,
            other.distance,
        )

    def __hash__(self) -> int:
        return hash((self.index, self.start, self.end, self.distance))

    def as_tuple(self) -> Tuple[int, int, int, float]:
        return (self.index, self.start, self.end, self.distance)


WindowSearchResult = Tuple[List[WindowMatch], SearchStats]


#: Cap on the alpha-derived window length: past every trajectory length.
_MAX_WINDOW = float(2**53)


def resolve_window_range(
    query_length: int,
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
) -> Tuple[int, int]:
    """The inclusive window-length band ``[lo, hi]`` for a query.

    ``alpha`` sets the relative band ``[m·(1-α), m·(1+α)]`` (rounded
    outward to integers, floored at one element); explicit
    ``min_window`` / ``max_window`` override either edge.  Trajectories
    shorter than ``lo`` still contribute their single whole-trajectory
    window — a short trajectory is its own best effort, and dropping it
    would make the engine's answer depend on corpus composition.
    """
    if query_length < 1:
        raise ValueError("subtrajectory search requires a non-empty query")
    if not alpha >= 0.0:  # NaN too
        raise ValueError("window band alpha must be non-negative")
    # The float band edges are clamped before rounding: a huge finite
    # alpha would overflow ``m·(1±α)`` to ±inf or round to an integer
    # no array index holds.  Per-trajectory bands clamp to the length
    # anyway, so any alpha past the cap answers alike.
    lo = (
        int(min_window)
        if min_window is not None
        else math.ceil(max(1.0, query_length * (1.0 - alpha)))
    )
    hi = (
        int(max_window)
        if max_window is not None
        else max(
            lo, math.floor(min(_MAX_WINDOW, query_length * (1.0 + alpha)))
        )
    )
    if lo < 1:
        raise ValueError("minimum window length must be at least 1")
    if hi < lo:
        raise ValueError("maximum window length must not undercut the minimum")
    return lo, hi


def _effective_band(n: int, lo: int, hi: int) -> Tuple[int, int]:
    """Per-trajectory band: clamp ``[lo, hi]`` to a length-``n`` trajectory."""
    return min(lo, n), min(hi, n)


def window_counts(
    lengths: Union[Sequence[int], np.ndarray], lo: int, hi: int
) -> np.ndarray:
    """Number of windows in the band, per trajectory, in closed form.

    With the effective band ``[lo_e, hi_e]`` (the global band clamped to
    the trajectory length ``n``): starts ``0..n-hi_e`` carry the full
    ``hi_e - lo_e + 1`` end choices, and the tail starts lose one choice
    each — a triangle.  Empty trajectories count their single empty
    window.  This is the denominator behind ``windows_total`` and the
    per-trajectory increment behind ``windows_pruned``.
    """
    n = np.asarray(lengths, dtype=np.int64)
    lo_e = np.minimum(lo, n)
    hi_e = np.minimum(hi, n)
    band = hi_e - lo_e
    counts = (n - hi_e + 1) * (band + 1) + band * (band + 1) // 2
    return np.where(n <= 0, np.int64(1), counts)


def window_dp_cells(
    lengths: Union[Sequence[int], np.ndarray], lo: int, hi: int
) -> np.ndarray:
    """Per-trajectory DP cells of one windowed pass (one query row each).

    The row for start ``s`` spans ``min(hi_e, n - s)`` columns; summing
    over starts gives the per-query-row cell count in closed form.  Used
    for ``SearchStats`` kernel-throughput attribution (an upper bound —
    abandoned rows stop paying early, like the whole-trajectory kernels'
    accounting).
    """
    n = np.asarray(lengths, dtype=np.int64)
    lo_e = np.minimum(lo, n)
    hi_e = np.minimum(hi, n)
    band = hi_e - lo_e
    cells = (n - hi_e + 1) * hi_e + band * (lo_e + hi_e - 1) // 2
    return np.where(n <= 0, np.int64(0), cells)


def edr_windows_many(
    query: TrajectoryLike,
    candidates: Sequence[TrajectoryLike],
    epsilon: float,
    lo: int,
    hi: int,
    bounds: Optional[Union[float, Sequence[float], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best banded window of every candidate, in one batched row DP.

    For each candidate the minimum of ``EDR(query, candidate[s:e])``
    over all windows with ``lo <= e - s <= hi`` (band clamped per
    trajectory; candidates shorter than ``lo`` contribute their whole
    self) — ties broken on smallest ``start`` then smallest ``end``.

    Rows of the batch are *(candidate, start)* pairs holding the suffix
    ``candidate[s : s + min(hi_e, n - s)]``; after the ``m``-th query
    element, DP column ``j`` of a row is exactly
    ``EDR(query, candidate[s : s + j])``, so one pass prices every end
    of every start.  Padded columns use +inf points and sit right of all
    real columns, exactly as in :func:`~repro.core.edr_batch.edr_many`.

    ``bounds`` (scalar or per candidate) enables per-row early abandon:
    a row whose masked row minimum exceeds the bound has *every* window
    at that start proven farther, its windows count as abandoned, and
    the batch compacts.  Rows are priced independently, so results and
    counters do not depend on how candidates are grouped into batches.

    Returns ``(distances, starts, ends, evaluated, abandoned)`` arrays:
    the best distance (``inf`` when every window was abandoned), its
    window ``[start, end)``, and per-candidate counts of windows whose
    exact distance was computed vs. proven farther than the bound.
    """
    if epsilon < 0.0:
        raise ValueError("matching threshold epsilon must be non-negative")
    if lo < 1:
        raise ValueError("minimum window length must be at least 1")
    if hi < lo:
        raise ValueError("maximum window length must not undercut the minimum")
    query_points = _points(query)
    m = len(query_points)
    count = len(candidates)
    distances = np.full(count, np.inf, dtype=np.float64)
    starts = np.zeros(count, dtype=np.int64)
    ends = np.zeros(count, dtype=np.int64)
    evaluated = np.zeros(count, dtype=np.int64)
    abandoned = np.zeros(count, dtype=np.int64)
    if count == 0:
        return distances, starts, ends, evaluated, abandoned
    points = [_points(candidate) for candidate in candidates]

    bounds_array: Optional[np.ndarray] = None
    if bounds is not None:
        bounds_array = np.ascontiguousarray(
            np.broadcast_to(np.asarray(bounds, dtype=np.float64), (count,))
        )

    # Row bookkeeping: one row per (candidate, start) pair, grouped by
    # candidate with starts ascending — the order the tie-break relies on.
    row_candidate: List[int] = []
    row_start: List[int] = []
    row_length: List[int] = []
    row_low: List[int] = []
    totals = np.zeros(count, dtype=np.int64)
    for position, candidate_points in enumerate(points):
        n = len(candidate_points)
        if n == 0:
            # The empty trajectory offers only its empty window: every
            # query element must be deleted.  Always evaluated — there
            # is no DP to abandon.
            distances[position] = float(m)
            evaluated[position] = 1
            totals[position] = 1
            continue
        if m > 0 and candidate_points.shape[1] != query_points.shape[1]:
            raise ValueError("trajectories must have the same spatial arity")
        lo_e, hi_e = _effective_band(n, lo, hi)
        totals[position] = int(window_counts([n], lo, hi)[0])
        for start in range(0, n - lo_e + 1):
            row_candidate.append(position)
            row_start.append(start)
            row_length.append(min(hi_e, n - start))
            row_low.append(lo_e)
    if not row_candidate:
        return distances, starts, ends, evaluated, abandoned

    row_candidate_array = np.array(row_candidate, dtype=np.int64)
    row_start_array = np.array(row_start, dtype=np.int64)
    row_length_array = np.array(row_length, dtype=np.int64)
    row_low_array = np.array(row_low, dtype=np.int64)
    rows = row_candidate_array.size
    width = int(row_length_array.max())
    dims = query_points.shape[1] if m > 0 else (
        points[int(row_candidate_array[0])].shape[1]
    )

    padded = np.full((rows, width, dims), np.inf, dtype=np.float64)
    row = 0
    for position, candidate_points in enumerate(points):
        n = len(candidate_points)
        if n == 0:
            continue
        lo_e, hi_e = _effective_band(n, lo, hi)
        full = n - hi_e + 1
        # Full-band rows share length hi_e: one strided view fills them
        # all; the at-most (hi_e - lo_e) tail rows shrink one by one.
        windows_view = np.lib.stride_tricks.sliding_window_view(
            candidate_points, hi_e, axis=0
        )
        padded[row : row + full, :hi_e] = windows_view.transpose(0, 2, 1)
        row += full
        for start in range(full, n - lo_e + 1):
            padded[row, : n - start] = candidate_points[start:]
            row += 1
    assert row == rows

    # From here the DP mirrors edr_many with rows in place of candidates:
    # same float64 operations, same masked-row-minimum abandonment, same
    # active-set compaction — plus a final per-end extraction.
    active = np.arange(rows, dtype=np.int64)
    active_lengths = row_length_array.copy()
    active_low = row_low_array.copy()
    indices = np.arange(width + 1, dtype=np.float64)
    column_numbers = np.arange(width + 1, dtype=np.int64)
    previous = np.tile(indices, (rows, 1))
    use_bounds = bounds_array is not None
    active_bounds = bounds_array[row_candidate_array] if use_bounds else None

    for i in range(1, m + 1):
        element = query_points[i - 1]
        matches = np.abs(padded[:, :, 0] - element[0]) <= epsilon
        for axis in range(1, dims):
            if not matches.any():
                break
            matches &= np.abs(padded[:, :, axis] - element[axis]) <= epsilon
        subcost = np.where(matches, 0.0, 1.0)

        tentative = np.empty((active.size, width + 1), dtype=np.float64)
        tentative[:, 0] = float(i)
        np.minimum(
            previous[:, 1:] + 1.0,
            previous[:, :-1] + subcost,
            out=tentative[:, 1:],
        )
        if use_bounds:
            # Masked row minimum over real columns: every DP path to any
            # final column crosses this row with non-negative step costs,
            # so row-min > bound kills every window at this start.  The
            # pre-propagation test is exact for the same prefix argument
            # as edr_many's.
            masked = np.where(
                column_numbers[None, :] <= active_lengths[:, None],
                tentative,
                np.inf,
            )
            alive = masked.min(axis=1) <= active_bounds
            if not alive.all():
                dead = ~alive
                np.add.at(
                    abandoned,
                    row_candidate_array[active[dead]],
                    active_lengths[dead] - active_low[dead] + 1,
                )
                if not alive.any():
                    # Every row is dead: each non-empty candidate's
                    # abandoned count already equals its window total,
                    # and empty candidates were priced up front.
                    return distances, starts, ends, evaluated, abandoned
                active = active[alive]
                active_lengths = active_lengths[alive]
                active_low = active_low[alive]
                tentative = tentative[alive]
                padded = padded[alive]
                active_bounds = active_bounds[alive]
                new_width = int(active_lengths.max())
                if new_width < width:
                    width = new_width
                    tentative = np.ascontiguousarray(tentative[:, : width + 1])
                    padded = np.ascontiguousarray(padded[:, :width])
                    indices = indices[: width + 1]
                    column_numbers = column_numbers[: width + 1]
        previous = indices + np.minimum.accumulate(tentative - indices, axis=1)

    # Extraction: valid ends for a row are columns lo_e..row_length; the
    # masked argmin's first-occurrence rule picks the smallest end, and
    # the ascending-start row order below keeps the smallest start.
    valid = (column_numbers[None, :] >= active_low[:, None]) & (
        column_numbers[None, :] <= active_lengths[:, None]
    )
    masked_final = np.where(valid, previous, np.inf)
    row_best = masked_final.min(axis=1)
    row_end = masked_final.argmin(axis=1)
    for slot in range(active.size):
        row_id = int(active[slot])
        position = int(row_candidate_array[row_id])
        value = float(row_best[slot])
        if value < distances[position]:
            distances[position] = value
            starts[position] = int(row_start_array[row_id])
            ends[position] = int(row_start_array[row_id] + row_end[slot])

    non_empty = np.array(
        [len(candidate_points) > 0 for candidate_points in points]
    )
    evaluated[non_empty] = totals[non_empty] - abandoned[non_empty]
    return distances, starts, ends, evaluated, abandoned


def edr_windows(
    query: TrajectoryLike,
    candidate: TrajectoryLike,
    epsilon: float,
    lo: int,
    hi: int,
    bound: Optional[float] = None,
) -> Tuple[float, int, int]:
    """Best banded window of one candidate: ``(distance, start, end)``.

    Single-candidate convenience over :func:`edr_windows_many`; the
    distance is ``inf`` when ``bound`` abandoned every window.
    """
    distances, starts, ends, _, _ = edr_windows_many(
        query, [candidate], epsilon, lo, hi, bounds=bound
    )
    return float(distances[0]), int(starts[0]), int(ends[0])


def refine_windows(
    query_points: np.ndarray,
    rows: Sequence[TrajectoryLike],
    epsilon: float,
    lo: int,
    hi: int,
    threshold: float,
    batch_size: int,
    early_abandon: bool,
) -> List[Tuple[float, int, int, int, int]]:
    """Best banded window of each row, through length-bucketed
    :func:`edr_windows_many` batches.

    The refine wave of both round executors: serial
    :func:`subknn_search` and the shard workers.  With ``early_abandon``
    rows abandon against the frozen phase ``threshold``.  Outcomes align
    with ``rows``: ``(distance, start, end, evaluated, abandoned)``, with
    ``inf`` distance when every window was abandoned.
    """
    outcomes: List[Optional[Tuple[float, int, int, int, int]]] = [None] * len(rows)
    limit = float(threshold) if early_abandon and np.isfinite(threshold) else None
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    for bucket in iter_length_buckets(lengths, batch_size):
        distances, starts, ends, evaluated, abandoned = edr_windows_many(
            query_points, [rows[int(slot)] for slot in bucket], epsilon, lo, hi,
            bounds=limit,
        )
        for position, slot in enumerate(bucket):
            outcomes[int(slot)] = (
                float(distances[position]),
                int(starts[position]),
                int(ends[position]),
                int(evaluated[position]),
                int(abandoned[position]),
            )
    return outcomes  # type: ignore[return-value]


@dataclass
class _WindowRoute(_Route):
    """The best-window route.  Merges never republish the cooperative
    bound, so shard workers abandon rows against the phase threshold
    only — which keeps ``windows_abandoned`` independent of the shard
    count."""

    method: ClassVar[str] = "refine_windows"
    republish: ClassVar[bool] = False

    database: Optional[TrajectoryDatabase] = None
    rows: Dict[int, TrajectoryLike] = field(default_factory=dict)

    def phases(self, chunk, threshold, retire):
        """The free-start filter of one frozen round: its refine phases.

        Fetches the chunk's rows from ``database`` once, in one batch
        (:meth:`~repro.core.database.TrajectoryDatabase.rows`), and keeps
        them in ``rows`` for an in-process refine.  Prices every member in one bit-parallel
        free-start pass — ``min over all windows w of EDR(query, w)``, a
        sound lower bound of the best banded window — and yields
        ``(members, threshold)`` phases in ascending order of that bound
        (chunk order breaks ties).  Every member whose bound exceeds the
        phase threshold is retired as :data:`FREE_START_STAGE` instead.

        At a finite ``threshold`` there is one phase.  At ``inf`` (result
        not yet full) the round first yields the members it needs to fill
        the result — the smallest bounds — and, once their windows are
        offered, checks the rest against the threshold they set.  A
        free-start pass abandons past a finite threshold (row minima
        never decrease); an abandoned bound is ``inf`` and prunes like
        any other.  Every decision is a function of the chunk, the
        threshold and the result alone, so it is shard-count-independent.
        """
        fetched = self.database.rows(chunk)
        self.rows = dict(zip(chunk, fetched))
        floors = edr_many_bitparallel(
            self.args[0],  # the window task's leading argument: the query
            fetched,
            self.database.epsilon,
            bounds=threshold if np.isfinite(threshold) else None,
            free_start=True,
        )
        ranked = np.argsort(floors, kind="stable")
        if not np.isfinite(threshold):
            head = self.result.k - len(self.result)
            yield [chunk[int(slot)] for slot in ranked[:head]], threshold
            ranked = ranked[head:]
            threshold = self.result.best_so_far
        survivors: List[int] = []
        for slot in ranked:
            if floors[slot] > threshold:
                retire(chunk[int(slot)], FREE_START_STAGE)
            else:
                survivors.append(chunk[int(slot)])
        if survivors:
            yield survivors, threshold

    def offer(self, candidate: int, outcome) -> None:
        distance, start, end = outcome[:3]
        self.result.offer(
            candidate, distance, WindowMatch(candidate, start, end, distance)
        )

    def note(self, stats: SearchStats, candidate: int, outcome) -> None:
        stats.true_distance_computations += 1
        stats.windows_evaluated += outcome[3]
        stats.windows_abandoned += outcome[4]


def window_route(
    database: TrajectoryDatabase,
    query: Trajectory,
    pruners: Sequence[Pruner],
    k: int,
    round_size: int,
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
    early_abandon: bool = False,
) -> _WindowRoute:
    """The best-window route of one query over ``database``.

    Visits candidates in ascending order of the first pruner's
    window-sound bulk bound; every pruner's window bounds are static
    arrays priced here, so a sharded coordinator needs no filter wave.
    The route's ``args`` are the window task's fixed arguments.
    """
    query_points = np.ascontiguousarray(_points(query))
    lo, hi = resolve_window_range(len(query_points), alpha, min_window, max_window)
    result = _ResultList(k)
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    bounds = [
        np.asarray(query_pruner.bulk_window_lower_bounds(), dtype=np.float64)
        for query_pruner in query_pruners
    ]
    return _WindowRoute(
        query_pruners,
        bounds,
        bounds[0] if bounds else np.zeros(len(database), dtype=np.float64),
        result,
        (query_points, lo, hi, round_size, early_abandon),
        weights=window_counts(np.asarray(database.lengths, dtype=np.int64), lo, hi),
        kernel=WINDOW_KERNEL,
        database=database,
    )


def subknn_search(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    pruners: Sequence[Pruner] = (),
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
    early_abandon: bool = False,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
) -> WindowSearchResult:
    """Exact top-k subtrajectory search: the k closest banded windows.

    Runs :func:`window_route` through the sharded engine's frozen-round
    loop (:func:`~repro.core.rounds.run_rounds`) on one in-process
    shard: candidates are visited in ascending order of the primary
    pruner's *window-sound* bulk bound; each round freezes the current
    k-th best window distance, prunes whole trajectories whose window
    bound exceeds it (charging all their windows to ``windows_pruned``)
    or, in a sorted break, every remaining one; the free-start filter
    (``_WindowRoute.phases``, credited as :data:`FREE_START_STAGE`)
    retires more, and :func:`refine_windows` prices the rest — the
    banded DP owns every distance and the ``(start, end)`` tie-break.

    Answers are byte-for-byte those of the brute-force window oracle:
    pruning compares sound per-window lower bounds strictly against the
    threshold, so a window that could enter the result is never skipped,
    and abandonment (enabled by ``early_abandon``) only discards windows
    proven farther than the frozen threshold.  Rounds hold
    ``refine_batch_size`` candidates (at least 2; ``None`` is the
    default size).
    """
    started = time.perf_counter()
    if refine_batch_size is None:
        refine_batch_size = DEFAULT_REFINE_BATCH_SIZE
    round_size = max(2, int(refine_batch_size))
    route = window_route(
        database, query, pruners, k, round_size, alpha, min_window, max_window,
        early_abandon,
    )
    query_points, lo, hi = route.args[:3]
    total = len(database)
    cells_per_row = window_dp_cells(database.lengths, lo, hi)
    (stats,) = per_shard = round_stats(route, [0, total])

    def execute(route, groups, threshold):
        (members,) = groups.values()
        tick = time.perf_counter()
        outcomes = refine_windows(
            query_points, [route.rows[candidate] for candidate in members],
            database.epsilon, lo, hi, threshold, round_size, early_abandon,
        )
        stats.note_kernel(
            WINDOW_KERNEL,
            int(len(query_points) * cells_per_row[members].sum()),
            time.perf_counter() - tick,
        )
        for candidate, outcome in zip(members, outcomes):
            route.offer(candidate, outcome)
        return {0: outcomes}

    run_rounds(route, np.zeros(total, dtype=np.int64), per_shard, round_size, execute)
    stats.elapsed_seconds = time.perf_counter() - started
    return route.answer(), stats
