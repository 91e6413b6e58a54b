"""Trajectory histograms and the HD lower bound of EDR (paper Section 4.3).

A trajectory histogram partitions space into equal ε-sized bins per axis
and counts the elements falling in each bin — the trajectory analogue of
a string's frequency vector.  The *histogram distance* HD between two
histograms lower-bounds EDR (Theorem 6) and is linear to compute, so it
makes a cheap pruning filter.

Because elements near a shared boundary of two bins can ε-match without
any edit operation, the distance must treat bins that *approximately
match* (the same bin or an adjacent one, Definition 5) as compatible.
This implementation computes HD as ``max(m, n) - M`` where ``M`` is the
maximum one-to-one pairing of elements across approximately-matching
bins (a small bipartite max-flow): every free match of an EDR script is
such a pair, so the bound can never exceed the true distance — including
the chained-match cases (A-B, B-C) where the paper's net-first
CompHisDist pseudo-code overshoots.  On exact-match (string) alphabets
the formula collapses to the classic frequency distance.

Bin-size variants: Corollary 1 allows histograms with bin size δ·ε
(δ >= 2) and per-axis one-dimensional histograms, both still lower
bounds of EDR at threshold ε.  :class:`HistogramSpace` covers all of
these — callers choose the bin size and the projection.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Sequence as SequenceABC
from itertools import chain, product
from operator import add
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from .trajectory import Trajectory

__all__ = [
    "HistogramSpace",
    "HistogramArrayStore",
    "HistogramMatcher",
    "HistogramRows",
    "QueryProbe",
    "histogram_distance",
    "histogram_distance_quick",
    "histogram_match_capacity",
    "histogram_window_bound",
    "TrajectoryHistogram",
]

BinIndex = Tuple[int, ...]
TrajectoryHistogram = Dict[BinIndex, int]


class HistogramSpace:
    """A grid of equal-size bins over d-dimensional space.

    Parameters
    ----------
    origin:
        Per-axis coordinate of the lower edge of bin 0.  Points below the
        origin simply land in negative bin indices, so query trajectories
        outside the dataset's bounding box are handled naturally.
    bin_size:
        Edge length of every bin on every axis.  For the HD lower bound
        to hold against ``EDR_eps``, ``bin_size`` must be ``delta * eps``
        for some ``delta >= 1`` **and** the histogram distance must treat
        adjacency at that same granularity — which this class guarantees
        by construction, since adjacency is defined on its own grid.

    Every histogram built on one space shares one key object per
    distinct bin: a corpus of N rows holds as many key tuples as it
    occupies bins, not one per bin per row.
    """

    def __init__(self, origin: Sequence[float], bin_size: float) -> None:
        if bin_size <= 0.0:
            raise ValueError("bin size must be positive")
        self.origin = np.asarray(origin, dtype=np.float64).ravel()
        self.bin_size = float(bin_size)
        self._keys: Dict[BinIndex, BinIndex] = {}

    @classmethod
    def for_trajectories(
        cls,
        trajectories: Iterable[Trajectory],
        bin_size: float,
        axis: Optional[int] = None,
    ) -> "HistogramSpace":
        """Space anchored at the dataset's per-axis minimum (paper §4.3).

        With ``axis`` given, builds a one-dimensional space over that
        coordinate only (the Corollary 1 per-axis variant).
        """
        trajectories = list(trajectories)
        if not trajectories:
            raise ValueError("need at least one trajectory to anchor the space")
        minima = np.min(
            [t.bounds()[0] for t in trajectories if len(t) > 0], axis=0
        )
        if axis is not None:
            minima = minima[axis : axis + 1]
        return cls(minima, bin_size)

    @property
    def ndim(self) -> int:
        return len(self.origin)

    def bin_indices(self, trajectory: Union[Trajectory, np.ndarray]) -> np.ndarray:
        """Integer bin index of every trajectory element, shape ``(n, d)``."""
        points = (
            trajectory.points if isinstance(trajectory, Trajectory) else
            np.atleast_2d(np.asarray(trajectory, dtype=np.float64))
        )
        if points.shape[1] != self.ndim:
            raise ValueError(
                f"space is {self.ndim}-d but points are {points.shape[1]}-d"
            )
        return np.floor((points - self.origin) / self.bin_size).astype(np.int64)

    def counts(self, trajectory: Union[Trajectory, np.ndarray]) -> Counter:
        """Element count per occupied bin, keyed by fresh tuples rather
        than the shared keys: for a histogram the corpus does not keep (a
        query's, or one a store build writes out), so the key table holds
        only corpus bins."""
        return Counter(map(tuple, self.bin_indices(trajectory).tolist()))

    def histogram(self, trajectory: Union[Trajectory, np.ndarray]) -> TrajectoryHistogram:
        """Sparse histogram: map from occupied bin index to element count."""
        return self.shared(self.counts(trajectory).items())

    def shared(self, counts: Iterable[Tuple[BinIndex, int]]) -> TrajectoryHistogram:
        """The histogram of ``(bin, count)`` pairs, keyed by this space's
        shared key objects."""
        keys = self._keys
        return {keys.setdefault(key, key): count for key, count in counts}


def _approximate_neighbors(bin_index: BinIndex) -> Iterable[BinIndex]:
    """The bin itself and all adjacent bins (Definition 5's approximate match)."""
    for offset in product((-1, 0, 1), repeat=len(bin_index)):
        yield tuple(map(add, bin_index, offset))


def _max_cancellation_1d(
    surplus: Dict[BinIndex, int], deficit: Dict[BinIndex, int]
) -> int:
    """Exact maximum matching for one-dimensional (path-adjacency) bins.

    On a line, a unit in bin b can only pair with bins b-1, b, b+1, so a
    left-to-right greedy that always serves the expiring carry first is
    optimal (a standard exchange argument) — no flow solver needed.
    The property-based tests cross-check this against a Dinic oracle,
    and it measures faster than :class:`HistogramMatcher`'s augmenting
    paths on line bins, so the matcher delegates to it there.
    """
    bins = sorted(set(surplus) | set(deficit))
    carry_surplus = 0  # unmatched surplus from the previous bin
    carry_deficit = 0  # unmatched deficit from the previous bin
    previous = None
    total = 0
    for bin_index in bins:
        position = bin_index[0]
        if previous is not None and position - previous > 1:
            carry_surplus = 0
            carry_deficit = 0
        available_surplus = surplus.get(bin_index, 0)
        available_deficit = deficit.get(bin_index, 0)
        # Expiring carries first: they cannot reach the next bin.
        matched = min(carry_surplus, available_deficit)
        total += matched
        carry_surplus -= matched
        available_deficit -= matched
        matched = min(carry_deficit, available_surplus)
        total += matched
        carry_deficit -= matched
        available_surplus -= matched
        # Same-bin matching never hurts (swappable in any optimum).
        matched = min(available_surplus, available_deficit)
        total += matched
        carry_surplus = available_surplus - matched
        carry_deficit = available_deficit - matched
        previous = position
    return total


class HistogramMatcher:
    """One histogram prepared to be matched against many candidates.

    HD's ``M`` (Theorem 6) is a bipartite max-flow between the query's
    and a candidate's bins along approximately-matching pairs.  The
    query side is built once: a *cover* index from every grid cell to
    the query bins whose 3^d neighbourhood contains it, so a candidate
    bin finds all of its edges with one dictionary lookup, and the
    query mass reachable from each cell.  One sweep over a candidate
    then gives both per-side matchable-mass caps of
    :func:`histogram_distance_quick`, which makes the quick bound and
    the window bound methods of the same object.

    :meth:`matchable` is exact — the same integer as a general max-flow
    solver, which the tests check against a Dinic oracle.  It seeds a
    greedy flow, then pushes BFS augmenting paths through the residual
    bipartite graph until none is left, stopping early once the flow
    reaches ``min(caps)``, which no flow can exceed.  One-dimensional
    bins take the exact line greedy instead.
    """

    def __init__(self, query: TrajectoryHistogram) -> None:
        self._query = query
        self.total = sum(query.values())
        self._amounts = amounts = list(query.values())
        self._line = len(next(iter(query), ())) == 1
        cover: Dict[BinIndex, List[int]] = {}
        for slot, bin_index in enumerate(query):
            for cell in _approximate_neighbors(bin_index):
                cover.setdefault(cell, []).append(slot)
        self._cover = cover
        self._reach = {
            cell: sum(amounts[slot] for slot in slots)
            for cell, slots in cover.items()
        }

    def _edges(
        self, candidate: TrajectoryHistogram
    ) -> Tuple[List[Tuple[int, List[int]]], int, int]:
        """The candidate's matchable bins as ``(count, query slots)`` rows,
        and the query-side and candidate-side matchable-mass caps."""
        cover = self._cover
        reach = self._reach
        near = [0] * len(self._amounts)
        rows = []
        upper_candidate = 0
        for cell, count in candidate.items():
            slots = cover.get(cell)
            if slots is not None:
                limit = reach[cell]
                upper_candidate += count if count < limit else limit
                for slot in slots:
                    near[slot] += count
                rows.append((count, slots))
        return rows, sum(map(min, self._amounts, near)), upper_candidate

    def quick_distance(self, candidate: TrajectoryHistogram) -> int:
        """:func:`histogram_distance_quick` against ``candidate``."""
        _, upper_query, upper_candidate = self._edges(candidate)
        upper = min(upper_query, upper_candidate)
        return max(self.total, sum(candidate.values())) - upper

    def window_bound(self, candidate: TrajectoryHistogram) -> int:
        """:func:`histogram_window_bound` against ``candidate``."""
        return max(0, self.total - self._edges(candidate)[1])

    def distance(self, candidate: TrajectoryHistogram) -> int:
        """:func:`histogram_distance` against ``candidate``."""
        return max(self.total, sum(candidate.values())) - self.matchable(candidate)

    def matchable(self, candidate: TrajectoryHistogram) -> int:
        """Maximum one-to-one element pairing ``M`` with ``candidate``."""
        if self._line:
            return _max_cancellation_1d(self._query, candidate)
        rows, upper_query, upper_candidate = self._edges(candidate)
        cap = min(upper_query, upper_candidate)
        if not cap:
            return 0
        residual = self._amounts[:]  # unused query mass per slot
        holders: Dict[int, Dict[int, int]] = {}  # slot -> {row: flow}
        supply = []  # unmatched candidate mass per row
        flow = 0
        for row, (count, slots) in enumerate(rows):
            left = count
            for slot in slots:
                free = residual[slot]
                if free:
                    take = free if free < left else left
                    residual[slot] = free - take
                    holders.setdefault(slot, {})[row] = take
                    left -= take
                    if not left:
                        break
            flow += count - left
            supply.append(left)
        while flow < cap:
            # Multi-source BFS: rows with supply -> any neighbouring slot;
            # a full slot leads on to the rows holding flow on it.
            parent_row = {row: None for row, left in enumerate(supply) if left}
            queue = deque(parent_row)
            parent_slot: Dict[int, int] = {}
            end = None
            while queue and end is None:
                row = queue.popleft()
                for slot in rows[row][1]:
                    if slot in parent_slot:
                        continue
                    parent_slot[slot] = row
                    if residual[slot]:
                        end = slot
                        break
                    for other, units in holders.get(slot, {}).items():
                        if units and other not in parent_row:
                            parent_row[other] = slot
                            queue.append(other)
            if end is None:
                break
            path = []  # (slot, row) edges gaining flow, sink side first
            push = residual[end]
            slot = end
            while slot is not None:
                row = parent_slot[slot]
                path.append((slot, row))
                slot = parent_row[row]
                push = min(push, supply[row] if slot is None else holders[slot][row])
            residual[end] -= push
            supply[row] -= push
            for slot, row in path:
                held = holders.setdefault(slot, {})
                held[row] = held.get(row, 0) + push
            for (_, row), (slot, _) in zip(path, path[1:]):
                holders[slot][row] -= push
            flow += push
        return flow


def histogram_distance(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """HD between two trajectory histograms: a sound lower bound of EDR.

    Computed as ``max(m, n) - M`` where ``M`` is the maximum number of
    one-to-one element pairings between the two histograms along
    approximately-matching bins (Definition 5), found by max-flow.
    Soundness (Theorem 6): the free matches of an optimal EDR script are
    element pairs within ε, which always lie in approximately-matching
    bins, so they form one feasible pairing — hence ``p <= M`` and
    ``EDR >= max(m, n) - p >= max(m, n) - M``.

    On strings (exact-match adjacency) ``M`` collapses to the per-symbol
    minimum counts and this formula equals the classic frequency
    distance ``max(surplus, deficit)`` of [18, 2], so HD is the exact
    ε-generalization of FD.  Note that the paper's Figure 5 pseudo-code
    nets the two histograms *first* and then cancels adjacent bins; that
    version over-estimates when matches chain across bins (R's element
    in bin A matching S's in bin B while R's in B matches S's in C) and
    can exceed the true EDR — the flow form computed here never does,
    and the property-based test suite verifies it.
    """
    return HistogramMatcher(first).distance(second)


def histogram_match_capacity(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """Maximum one-to-one ε-matchable element pairs between two trajectories.

    Every ε-matching element pair lies in the same or adjacent bins, so
    any in-order common subsequence — in particular the LCSS alignment —
    induces a feasible flow between the two *full* histograms along
    approximately-matching bins.  The maximum such flow therefore upper
    bounds ``LCSS(R, S)``, which is how the paper's pruning framework
    transfers to LCSS (Section 4, "can also be applied to LCSS").
    """
    return HistogramMatcher(first).matchable(second)


def comphisdist_paper(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """Literal transcription of the paper's Figure 5 (CompHisDist).

    Nets the histograms bin-by-bin first, then walks the bins and
    cancels opposite-sign amounts between approximately-matching bins,
    finally returning ``max(positive, negative)``.

    Kept for comparison and documentation only: when matches chain
    across bins (R's element in bin A matches S's in bin B while R's in
    B matches S's in C), the netting step hides the chain and this
    quantity can exceed the true EDR — see
    ``tests/test_histogram.py::TestPaperCompHisDist`` for the concrete
    counterexample.  Use :func:`histogram_distance` for retrieval.
    """
    difference: Dict[BinIndex, int] = {}
    for bin_index in set(first) | set(second):
        value = first.get(bin_index, 0) - second.get(bin_index, 0)
        if value != 0:
            difference[bin_index] = value
    for bin_index in sorted(difference):
        if difference.get(bin_index, 0) == 0:
            continue
        for neighbor in _approximate_neighbors(bin_index):
            if neighbor == bin_index or difference.get(neighbor, 0) == 0:
                continue
            current = difference.get(bin_index, 0)
            if current == 0:
                break
            other = difference[neighbor]
            if (current > 0) != (other > 0):
                cancelled = min(abs(current), abs(other))
                difference[bin_index] = current - cancelled * (1 if current > 0 else -1)
                difference[neighbor] = other - cancelled * (1 if other > 0 else -1)
    positive = sum(v for v in difference.values() if v > 0)
    negative = sum(-v for v in difference.values() if v < 0)
    return max(positive, negative)


def histogram_distance_quick(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """A cheaper, weaker lower bound of EDR than :func:`histogram_distance`.

    Bounds the matchable mass M from above per side —
    ``M <= sum_u min(H_R(u), neighbourhood mass of H_S around u)`` and
    symmetrically — without solving the flow, giving
    ``max(m, n) - min(upper_R, upper_S) <= HD <= EDR`` in one dictionary
    sweep.  The search engines consult this first and only pay for the
    exact flow when the quick bound fails to prune.
    """
    return HistogramMatcher(first).quick_distance(second)


def histogram_window_bound(
    query_histogram: TrajectoryHistogram,
    candidate_histogram: TrajectoryHistogram,
) -> int:
    """A lower bound of EDR valid for *every* window of the candidate.

    Only the query-side matchable-mass cap of
    :func:`histogram_distance_quick` survives restriction to windows: a
    window's histogram is elementwise dominated by its trajectory's, so
    the candidate mass reachable from each query bin can only shrink,
    giving for every window ``w``

        ``EDR(Q, w) >= HD(Q, w) >= |Q| - matchable_upper(Q -> T)``.

    The ``max(m, n)`` term and the candidate-side cap both depend on the
    window's own size and content, so they are dropped.  Equals the
    corresponding entry of
    :meth:`HistogramArrayStore.bulk_window_bounds` bit for bit.
    """
    return HistogramMatcher(query_histogram).window_bound(candidate_histogram)


# ----------------------------------------------------------------------
# Array-backed histogram store (bulk filter kernels)
# ----------------------------------------------------------------------
def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of CSR-ordered ``values`` (empty rows sum to 0)."""
    sums = np.zeros(len(indptr) - 1, dtype=np.int64)
    rows = np.flatnonzero(np.diff(indptr))
    if len(rows):
        sums[rows] = np.add.reduceat(values, indptr[rows])
    return sums


_KEY_MAX = np.iinfo(np.int64).max
_KEY_MIN = np.iinfo(np.int64).min


def _flatten_histograms(
    histograms: Sequence[TrajectoryHistogram], ndim: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dict histograms as ``(keys, counts, indptr)`` arrays, in dict order."""
    indptr = np.zeros(len(histograms) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, histograms), dtype=np.int64, count=len(histograms)),
        out=indptr[1:],
    )
    nnz = int(indptr[-1])
    keys = np.fromiter(
        chain.from_iterable(chain.from_iterable(histograms)),
        dtype=np.int64,
        count=nnz * ndim,
    ).reshape(nnz, ndim)
    data = np.fromiter(
        chain.from_iterable(histogram.values() for histogram in histograms),
        dtype=np.int64,
        count=nnz,
    )
    return keys, data, indptr


def _row_key_bounds(
    keys: np.ndarray, indptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row smallest and largest bin key of CSR-ordered ``keys``.

    An empty row keeps the identities of min and max, so it never moves
    a grid derived from the bounds.
    """
    rows, ndim = len(indptr) - 1, keys.shape[1]
    key_lo = np.full((rows, ndim), _KEY_MAX, dtype=np.int64)
    key_hi = np.full((rows, ndim), _KEY_MIN, dtype=np.int64)
    filled = np.flatnonzero(np.diff(indptr))
    if len(filled):
        key_lo[filled] = np.minimum.reduceat(keys, indptr[filled], axis=0)
        key_hi[filled] = np.maximum.reduceat(keys, indptr[filled], axis=0)
    return key_lo, key_hi


class _Rows(NamedTuple):
    """Rows of a count matrix: CSR arrays raveled on the grid ``(lo, shape)``,
    row totals, and per-row bin-key bounds."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    totals: np.ndarray
    key_lo: np.ndarray
    key_hi: np.ndarray
    lo: np.ndarray
    shape: np.ndarray

    @classmethod
    def empty(cls, ndim: int) -> "_Rows":
        empty = np.empty(0, dtype=np.int64)
        bounds = np.empty((0, ndim), dtype=np.int64)
        grid = np.zeros(ndim, dtype=np.int64)
        indptr = np.zeros(1, dtype=np.int64)
        return cls(empty, empty, indptr, empty, bounds, bounds, grid, grid)


class QueryProbe(NamedTuple):
    """A query histogram's 3^d neighbourhood on one store's grid.

    ``columns`` are the distinct in-grid columns adjacent to (or
    equal to) some query bin, ``indicator`` is the 0/1 CSR incidence
    ``(columns, query bins)`` between them, ``amounts`` are the query
    bin counts and ``neighborhood`` is the query mass adjacent to each
    column.  Every bulk bound only looks at these columns of a count
    matrix: the methods take ``near``, a CSR matrix of one row per
    candidate over the probed columns, in ``columns`` order.

    With ``A`` the query amounts, ``NS[i, u]`` row ``i``'s mass in the
    3^d-neighbourhood of query bin ``u`` and ``QN`` the neighbourhood
    mass, the two matchable-mass caps of
    :func:`histogram_distance_quick` are

        ``upper_query[i]     = sum_u min(A[u], NS[i, u])``
        ``upper_candidate[i] = sum_v min(counts[i, v], QN[v])``

    ``steps`` drive :meth:`ceilings`' greedy matching: one
    ``(query bins, columns)`` pair of index arrays per neighbour offset,
    the zero offset first, pairing each query bin with the in-grid
    column at that offset from it.
    """

    amounts: np.ndarray
    columns: np.ndarray
    indicator: sparse.csr_matrix
    neighborhood: np.ndarray
    steps: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    def query_cap(self, near: sparse.csr_matrix) -> np.ndarray:
        """``upper_query`` of every row of ``near``."""
        around = near @ self.indicator
        return _row_sums(
            np.minimum(around.data, self.amounts[around.indices]), around.indptr
        )

    def quick_bounds(self, near: sparse.csr_matrix, totals: np.ndarray) -> np.ndarray:
        """``max(m_query, totals[i]) - min(upper_query[i], upper_candidate[i])``."""
        upper_candidate = _row_sums(
            np.minimum(near.data, self.neighborhood[near.indices]), near.indptr
        )
        upper = np.minimum(self.query_cap(near), upper_candidate)
        return np.maximum(int(self.amounts.sum()), totals) - upper

    def ceilings(self, near: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """``max(m_query, totals[i]) - G[i]``, an integer ceiling of HD.

        ``near`` is dense and column-major: ``near[c, i]`` is row ``i``'s
        count at probe column ``c``; it is consumed.  ``G[i]`` is a
        greedy matching: each step pairs ``min(residual query mass at u,
        residual row mass at u + o)`` for one offset ``o``, the query
        bins' own bins first.  Under one offset distinct query bins meet
        distinct columns, so a step is one vectorised update for every
        row at once.  A greedy matching is feasible, so ``G[i] <= M``
        and each value is >= the exact HD: when it is <= a threshold,
        the exact stage cannot prune.
        """
        query = np.repeat(self.amounts[:, None], near.shape[1], axis=1)
        for bins, columns in self.steps:
            residual_query, residual_near = query[bins], near[columns]
            take = np.minimum(residual_query, residual_near)
            residual_query -= take
            residual_near -= take
            query[bins], near[columns] = residual_query, residual_near
        total = int(self.amounts.sum())
        return np.maximum(total, totals) - (total - query.sum(axis=0))


class HistogramArrayStore:
    """All histograms of one database variant as a single CSR count matrix.

    The per-trajectory ``dict`` histograms are the build- and exact-bound
    representation; this store re-packs them into one ``(N, cells)``
    scipy CSR matrix over the database's occupied bin range (padded by
    one bin per axis so adjacency never falls off the grid), which makes
    the *quick* HD bound of :func:`histogram_distance_quick` computable
    for every database trajectory in a handful of vectorized operations
    instead of N dictionary sweeps.  Row ``i`` holds histogram ``i``'s
    counts at its raveled bin keys in increasing column order: the same
    canonical ``(data, indices, indptr)`` triple that the tiered store
    and the shard packer write.

    The bulk bound is integer-exact: for every candidate ``i`` the value
    equals ``histogram_distance_quick(query_histogram, histograms[i])``
    bit for bit, which the property-based test suite asserts.
    """

    def __init__(
        self, histograms: Sequence[TrajectoryHistogram], ndim: int
    ) -> None:
        # A cold build is the empty store extended by every histogram.
        self._extend(_Rows.empty(int(ndim)), histograms)

    def derive(
        self, keep: np.ndarray, histograms: Sequence[TrajectoryHistogram]
    ) -> "HistogramArrayStore":
        """The store of this store's rows ``keep`` followed by ``histograms``.

        ``keep`` is a boolean row mask and ``histograms`` must be binned on
        the same grid origin as this store's rows.  The kept rows are
        selected as CSR slices and only the new rows are binned; their
        columns are re-raveled only when the padded grid grows or
        shrinks.  The result is byte-identical (``data``, ``indices``,
        ``indptr``, ``totals``, grid) to a cold build over the kept
        histograms followed by the new ones.
        """
        store = HistogramArrayStore.__new__(HistogramArrayStore)
        store._extend(self._select(keep), histograms)
        return store

    def _extend(
        self, rows: "_Rows", histograms: Sequence[TrajectoryHistogram]
    ) -> None:
        """Fill this store with ``rows`` followed by ``histograms``."""
        ndim = rows.key_lo.shape[1]
        keys, data, indptr = _flatten_histograms(histograms, ndim)
        key_lo, key_hi = _row_key_bounds(keys, indptr)
        key_lo = np.concatenate([rows.key_lo, key_lo])
        key_hi = np.concatenate([rows.key_hi, key_hi])

        self.ndim = ndim
        self.count = len(key_lo)
        if not len(rows.data) and not len(data):
            # Degenerate (all-empty) histograms: keep a 1-cell grid.
            self._lo = np.zeros(ndim, dtype=np.int64)
            self._shape = np.ones(ndim, dtype=np.int64)
        else:
            self._lo = key_lo.min(axis=0) - 1
            self._shape = key_hi.max(axis=0) + 1 - self._lo + 1
        self.cells = int(np.prod(self._shape))
        self._bounds = (key_lo, key_hi)

        kept_columns = rows.indices
        if len(kept_columns) and not (
            np.array_equal(rows.lo, self._lo)
            and np.array_equal(rows.shape, self._shape)
        ):
            # Raveling is monotone in the bin key, so a row's columns
            # stay sorted on the new grid.
            kept_keys = np.column_stack(
                np.unravel_index(kept_columns, tuple(rows.shape))
            ) + rows.lo
            kept_columns = self._ravel(kept_keys)
        columns = self._ravel(keys)
        lengths = np.diff(indptr)
        order = np.lexsort((columns, np.repeat(np.arange(len(lengths)), lengths)))
        self.totals = np.concatenate([rows.totals, _row_sums(data, indptr)])
        self._counts = sparse.csr_matrix(
            (
                np.concatenate([rows.data, data[order]]),
                np.concatenate([kept_columns, columns[order]]),
                np.concatenate([rows.indptr, rows.indptr[-1] + indptr[1:]]),
            ),
            shape=(self.count, self.cells),
        )

    def _select(self, keep: np.ndarray) -> "_Rows":
        """Rows ``keep`` of this store, as CSR arrays on this store's grid."""
        keep = np.asarray(keep, dtype=bool)
        counts = self._counts
        lengths = np.diff(counts.indptr)
        entries = np.repeat(keep, lengths)
        indptr = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=np.int64)
        np.cumsum(lengths[keep], out=indptr[1:])
        key_lo, key_hi = self._key_bounds()
        return _Rows(
            counts.data[entries].astype(np.int64, copy=False),
            counts.indices[entries],
            indptr,
            self.totals[keep],
            key_lo[keep],
            key_hi[keep],
            self._lo,
            self._shape,
        )

    def _key_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row smallest and largest bin key (cached; derived from the
        CSR columns for stores rebuilt by :meth:`from_state`)."""
        if self._bounds is None:
            keys = np.column_stack(
                np.unravel_index(self._counts.indices, tuple(self._shape))
            ) + self._lo
            self._bounds = _row_key_bounds(keys, self._counts.indptr)
        return self._bounds

    @classmethod
    def from_state(
        cls,
        ndim: int,
        lo: np.ndarray,
        shape: np.ndarray,
        totals: np.ndarray,
        counts: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> "HistogramArrayStore":
        """Rebuild a store from its raw arrays, skipping the binning pass.

        The sharded engine packs a store's row slice (``totals`` and
        ``counts``) into shared memory together with the *parent grid*
        (``lo``/``shape``): shard stores must keep the global grid, not
        re-derive one from their own rows, or the neighborhood columns —
        and therefore the quick bounds — would shift at shard borders.
        ``counts`` is the CSR triple ``(data, indices, indptr)``.
        """
        store = cls.__new__(cls)
        store.ndim = int(ndim)
        store._lo = np.asarray(lo, dtype=np.int64)
        store._shape = np.asarray(shape, dtype=np.int64)
        store.cells = int(np.prod(store._shape))
        store.totals = np.asarray(totals, dtype=np.int64)
        store.count = len(store.totals)
        store._counts = sparse.csr_matrix(counts, shape=(store.count, store.cells))
        store._bounds = None
        return store

    def _ravel(self, keys: np.ndarray) -> np.ndarray:
        """Flat grid column of every (in-grid) d-dimensional bin index."""
        return np.ravel_multi_index(tuple((keys - self._lo).T), tuple(self._shape))

    def query_probe(self, query_histogram: TrajectoryHistogram) -> QueryProbe:
        """The query-side geometry shared by every bulk bound on this grid.

        Query bins whose neighbourhood leaves the padded grid lose those
        columns: no database bin lies there, so they match nothing on
        the scalar path either.
        """
        query_keys = np.asarray(list(query_histogram), dtype=np.int64).reshape(
            len(query_histogram), self.ndim
        )
        amounts = np.fromiter(
            query_histogram.values(), dtype=np.int64, count=len(query_histogram)
        )
        offsets = np.array(
            list(product((-1, 0, 1), repeat=self.ndim)), dtype=np.int64
        )
        neighbor_bins = (query_keys[:, None, :] + offsets[None, :, :]).reshape(
            -1, self.ndim
        )
        bin_of_pair = np.repeat(np.arange(len(query_keys)), len(offsets))
        relative = neighbor_bins - self._lo
        in_grid = np.all((relative >= 0) & (relative < self._shape), axis=1)
        pair_bins = bin_of_pair[in_grid]
        columns, column_slot = np.unique(
            self._ravel(neighbor_bins[in_grid]), return_inverse=True
        )
        indicator = sparse.csr_matrix(
            (np.ones(len(pair_bins), dtype=np.int64), (column_slot, pair_bins)),
            shape=(len(columns), len(query_keys)),
        )
        # Probe column of every (offset, query bin) pair, -1 off the grid;
        # the zero offset sits in the middle of the 3^d offsets.
        slots = np.full(len(in_grid), -1, dtype=np.int64)
        slots[in_grid] = column_slot
        slots = slots.reshape(len(query_keys), len(offsets)).T
        middle = len(offsets) // 2
        steps = tuple(
            (bins, slots[offset, bins])
            for offset in (middle, *range(middle), *range(middle + 1, len(offsets)))
            for bins in (np.flatnonzero(slots[offset] >= 0),)
            if len(bins)
        )
        return QueryProbe(amounts, columns, indicator, indicator @ amounts, steps)

    def bulk_quick_bounds(self, query_histogram: TrajectoryHistogram) -> np.ndarray:
        """``histogram_distance_quick(query, ·)`` against every database row.

        Vectorized transcription of the per-side matchable-mass caps
        (see :class:`QueryProbe`).  The query's neighbourhood mass is
        zero outside the probed columns, so both caps only read those
        columns of the store: no temporary grows with the grid or the
        store's nonzeros.
        """
        probe = self.query_probe(query_histogram)
        return probe.quick_bounds(self._counts[:, probe.columns], self.totals)

    def probe_rows(
        self, probe: QueryProbe, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Quick bounds of ``rows`` (every row by default), equal to
        :meth:`bulk_quick_bounds`' entries bit for bit."""
        counts, totals = self._counts, self.totals
        if rows is not None:
            counts, totals = counts[rows], totals[rows]
        return probe.quick_bounds(counts[:, probe.columns], totals)

    def probe_ceilings(self, probe: QueryProbe, rows: np.ndarray) -> np.ndarray:
        """Exact-stage ceilings (:meth:`QueryProbe.ceilings`) of ``rows``.

        Each row's value depends on that row alone, so any set of rows
        gives the entries a pass over every row would, bit for bit.  Only
        the rows' own CSR runs are read.
        """
        counts = self._counts
        rows = np.asarray(rows, dtype=np.int64)
        starts = counts.indptr[rows].astype(np.int64)
        lengths = counts.indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        entries = np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
            starts - ends + lengths, lengths
        )
        slot_of = np.full(self.cells, -1, dtype=np.int64)
        slot_of[probe.columns] = np.arange(len(probe.columns))
        slots = slot_of[counts.indices[entries]]
        hit = slots >= 0
        near = np.zeros((len(probe.columns), len(rows)), dtype=np.int64)
        owners = np.repeat(np.arange(len(rows)), lengths)
        near[slots[hit], owners[hit]] = counts.data[entries[hit]]
        return probe.ceilings(near, self.totals[rows])

    def histogram(self, row: int, space: HistogramSpace) -> TrajectoryHistogram:
        """Row ``row``'s histogram, keyed by ``space``'s shared keys.

        A CSR row holds its histogram's bins in raveled order, so this is
        the histogram the row was built from, in key order; ``space``
        must be the grid the row was binned on.
        """
        if not 0 <= row < self.count:
            raise IndexError(f"row {row} out of range for {self.count} rows")
        counts = self._counts
        lo, hi = int(counts.indptr[row]), int(counts.indptr[row + 1])
        keys = np.column_stack(
            np.unravel_index(counts.indices[lo:hi], tuple(self._shape))
        ) + self._lo
        return space.shared(zip(map(tuple, keys.tolist()), counts.data[lo:hi].tolist()))

    def bulk_window_bounds(
        self, query_histogram: TrajectoryHistogram
    ) -> np.ndarray:
        """:func:`histogram_window_bound` against every database row.

        Only the query-side cap of :meth:`bulk_quick_bounds` is
        window-sound (see :func:`histogram_window_bound`), so this is
        the same neighborhood gather with the candidate-side cap and the
        ``max(m, n)`` term dropped:
        ``max(0, m_query - upper_query[i])`` per candidate.
        """
        probe = self.query_probe(query_histogram)
        upper_query = probe.query_cap(self._counts[:, probe.columns])
        return np.maximum(0, int(probe.amounts.sum()) - upper_query)


class HistogramRows(SequenceABC):
    """The per-row dict histograms of a store, decoded on access.

    Holds no dict per row: a corpus that derives a new store for every
    version (the ingest views) would otherwise keep a dict per row, about
    five times the store's bytes, for the exact stage and the scalar
    bounds, which read few rows per query.
    """

    def __init__(self, store: HistogramArrayStore, space: HistogramSpace) -> None:
        self._store = store
        self._space = space

    def __len__(self) -> int:
        return self._store.count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self._store.histogram(index, self._space)

    def __eq__(self, other) -> bool:
        # Equal to any sequence of equal dicts, as the list it replaces was.
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]
