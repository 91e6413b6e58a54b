"""Bit-parallel EDR kernels (Myers 1999, blocked as in Hyyrö 2003).

EDR's unit edit costs (paper Definition 2) quantize every cell update to
{0, 1} — exactly the structure Myers' bit-vector algorithm exploits for
Levenshtein distance.  Consecutive DP cells along the candidate axis
differ by -1, 0, or +1, so a whole 64-cell stripe of the column is
carried in two machine words:

* ``VP`` bit ``j``  =  1  iff  ``D[j+1, i] - D[j, i] = +1``
* ``VN`` bit ``j``  =  1  iff  ``D[j+1, i] - D[j, i] = -1``

(candidate positions along bits, query position ``i`` advancing one
Python-level step at a time — the transpose of :func:`~repro.core
.edr_batch.edr_many`'s row DP, which is value-identical because the EDR
recurrence is symmetric under swapping the sequences).  The classic
character-equality bitmask becomes a per-query-element ε-match bitmask
(:func:`~repro.core.matching.match_bits`): bit ``j`` of the mask is
``match(query_i, candidate_j)``.  One update processes 64 DP cells with
~15 word operations instead of 64 float min/add chains.

Word-packing layout
-------------------
Candidates longer than 64 elements are *blocked*: ``W = ceil(n / 64)``
words per bit vector, candidate position ``j`` living at bit ``j % 64``
of word ``j // 64`` (little-endian bit order, matching ``np.packbits``
with ``bitorder="little"``).  Horizontal carries (±1) propagate through
the block chain per update, with Hyyrö's ``Eq |= 1`` correction on a
negative carry-in.  The boundary row ``D[0, i] = i`` is encoded by
feeding a ``+1`` carry into block 0 on every step.

:func:`edr_many_bitparallel` vectorizes the word recurrence across a
candidate axis: the per-block state is a ``(candidates, W)`` ``uint64``
array and the Python loop advances all candidates one query element at
a time, with the same active-set compaction idiom as ``edr_many``.

Early abandoning
----------------
Exact per-row minima come from the vertical-delta words: the DP value at
candidate position ``j`` after query element ``i`` is ``i + prefix_j``
where ``prefix_j`` sums the ±1 bits of ``VP``/``VN`` up to ``j``.  A
16-bit lookup table over (VP byte, VN byte) pairs yields each byte's net
sum and running minimum, so the masked row minimum (padding bits beyond
each candidate's length excluded) costs one table gather per 8 cells.
``row_min > bound`` proves the final distance exceeds the bound (row
minima of the unit-cost DP never decrease), so the candidate's result
becomes :data:`~repro.core.edr.EARLY_ABANDONED` exactly as in
``edr_many`` — the sentinel pattern is byte-for-byte identical because
both kernels compare the same exact integer row minimum to the same
bound.

Free start
----------
With ``free_start=True`` the initial column is ``D[j, 0] = 0`` (``VP``
and ``VN`` start at zero) instead of ``D[j, 0] = j``: Myers' original
approximate-matching recurrence, in which the alignment may begin at
any candidate position.  The final row then holds, per end ``j``, the
best distance over every start, and its masked minimum
``m + min(0, min_j prefix_j)`` is ``min over all windows w of EDR(query,
w)`` — the same ``_min_prefixes`` read the bound checks use.  The
best-window search uses it as a filter ahead of its banded DP
(``repro.core.subtrajectory._WindowRoute.phases``).

Exactness contract: every value is computed in exact small-integer
arithmetic and converted to ``float64`` at the end, so results are
bit-for-bit equal to ``edr``/``edr_many``/``edr_reference`` — finite
entries and abandonment sentinels alike (property-tested in
``tests/test_edr_bitparallel.py``).  Sakoe-Chiba bands are delegated to
the exact banded kernels: a band breaks the two-word column compression,
and no engine refine path uses one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .edr import EARLY_ABANDONED, _points, edr
from .edr_batch import edr_many
from .trajectory import Trajectory

__all__ = ["edr_bitparallel", "edr_many_bitparallel"]

TrajectoryLike = Union[Trajectory, np.ndarray, Sequence]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_SHIFT_MSB = np.uint64(63)

# Match bitmasks are packed for several query elements at once so the
# per-row cost of the ε-comparison is one slice of a big vectorized
# pass instead of a handful of small numpy calls.  Small chunks keep
# the float difference scratch cache-resident — at 256 candidates of
# ~100 points a 32-row chunk spills to DRAM and the ε-compares become
# memory-bound, so 4 rows per pass measures fastest end to end.
_EQ_CHUNK_ROWS = 4

# Bound checks run every 4th query row (and always on the last).  The
# masked row minimum of the unit-cost DP never decreases with the row
# index — every cell of row i+1 derives from a row-i neighbour plus a
# non-negative cost — so a candidate exceeds its bound on some row iff
# it exceeds it on the last row: the abandonment pattern is invariant
# to the check schedule, and checking less often is pure throughput.
_BOUND_CHECK_STRIDE = 4


def _build_prefix_tables() -> "tuple[np.ndarray, np.ndarray]":
    """Byte-pair lookup tables for prefix sums of ±1 delta bits.

    Indexed by ``vp_byte * 256 + vn_byte``: ``NET`` is the byte's total
    ``popcount(vp) - popcount(vn)``; ``MINPRE`` the minimum over the
    byte's eight cumulative partial sums.  Together they turn an exact
    row-minimum over 64-cell words into a gather + cumsum over bytes.
    """
    bits = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.int8)
    delta = bits[:, None, :] - bits[None, :, :]
    cumulative = np.cumsum(delta, axis=2)
    net = np.ascontiguousarray(cumulative[:, :, -1]).reshape(-1)
    minpre = cumulative.min(axis=2).reshape(-1)
    return net, minpre


_NET, _MINPRE = _build_prefix_tables()


def _length_masks(lengths: np.ndarray, words: int) -> np.ndarray:
    """Per-candidate ``uint64`` masks with bits ``[0, n)`` set.

    Shape ``(candidates, words)``; garbage bits at positions at or
    beyond each candidate's length are cleared before any score or
    row-minimum read.
    """
    starts = np.arange(words, dtype=np.int64) * 64
    filled = np.clip(lengths[:, None] - starts[None, :], 0, 64)
    # Clamp the shift to stay in [0, 63]: shifting a uint64 by 64 is
    # undefined, and np.where evaluates both branches.
    shift = np.where(filled > 0, 64 - filled, 0).astype(np.uint64)
    return np.where(filled > 0, _ONES >> shift, np.uint64(0))


def _min_prefixes(vp_masked: np.ndarray, vn_masked: np.ndarray) -> np.ndarray:
    """``min(0, min_j prefix_j)`` per candidate from masked delta words.

    ``prefix_j`` is the cumulative ±1 sum over bit positions up to
    ``j``; including 0 accounts for the row's boundary cell
    ``D[0, i] = i``.  Bytes wholly past a candidate's length contribute
    their (masked) zero deltas — duplicates of an already-included
    prefix value, never spurious minima.
    """
    idx = vp_masked.view(np.uint8).astype(np.int32)
    idx <<= 8
    idx |= vn_masked.view(np.uint8)
    net = _NET[idx]
    pre = np.cumsum(net, axis=1, dtype=np.int32)
    pre -= net
    pre += _MINPRE[idx]
    return np.minimum(pre.min(axis=1), 0)


def _net_scores(vp_masked: np.ndarray, vn_masked: np.ndarray) -> np.ndarray:
    """``popcount(VP) - popcount(VN)`` per candidate (= ``prefix_n``)."""
    idx = vp_masked.view(np.uint8).astype(np.int32)
    idx <<= 8
    idx |= vn_masked.view(np.uint8)
    return _NET[idx].sum(axis=1, dtype=np.int64)


def _pack_eq_chunk(
    coords: np.ndarray,
    elements: np.ndarray,
    epsilon: float,
    bools: np.ndarray,
    diff: np.ndarray,
) -> np.ndarray:
    """ε-match bitmasks for a run of query elements, packed per word.

    ``coords`` holds the candidate coordinate planes
    ``(dims, candidates, width)`` (``+inf`` beyond each candidate's
    length); ``bools``/``diff`` are reusable scratch buffers whose
    padding columns (``width ..``) stay ``False`` so the packed words
    carry zero bits past every real position.  ``|a - e| <= ε`` is
    evaluated as ``-ε <= a - e <= ε`` — the same rounded difference
    feeds both forms, so the booleans are bit-identical to the dense
    kernels' — saving the ``abs`` pass over the largest temporary.
    Result: ``(rows, candidates, words)`` ``uint64``.
    """
    rows = len(elements)
    width = coords.shape[2]
    scratch = diff[:rows]
    matches = bools[:rows]
    real = matches[:, :, :width]
    np.subtract(coords[0][None, :, :], elements[:, 0][:, None, None], out=scratch)
    np.less_equal(scratch, epsilon, out=real)
    real &= scratch >= -epsilon
    for axis in range(1, coords.shape[0]):
        np.subtract(
            coords[axis][None, :, :], elements[:, axis][:, None, None], out=scratch
        )
        real &= scratch <= epsilon
        real &= scratch >= -epsilon
    count, padded_width = matches.shape[1], matches.shape[2]
    packed = np.packbits(
        matches.reshape(rows * count, padded_width), axis=1, bitorder="little"
    )
    return packed.view(np.uint64).reshape(rows, count, -1)


def edr_many_bitparallel(
    query: TrajectoryLike,
    candidates: Sequence[TrajectoryLike],
    epsilon: float,
    bounds: Optional[Union[float, Sequence[float], np.ndarray]] = None,
    band: Optional[int] = None,
    free_start: bool = False,
) -> np.ndarray:
    """Batched bit-parallel EDR: drop-in for :func:`~repro.core.edr_batch.edr_many`.

    Same signature, same exactness contract, same abandonment sentinels;
    only the arithmetic differs (word-packed ±1 deltas instead of a
    float64 row).  ``band`` is delegated to the exact banded ``edr_many``.

    ``free_start`` switches to Myers' approximate-matching recurrence:
    the initial column ``D[j, 0] = 0`` lets the alignment start at any
    candidate position, and the answer is the final row's minimum
    instead of its last cell — ``min over all windows w of EDR(query,
    w)``, the empty window (``len(query)``) included.  Row minima still
    never decrease, so ``bounds`` abandon exactly as in the default
    mode.  ``band`` does not combine with it.
    """
    if band is not None:
        if free_start:
            raise ValueError("a free-start pass takes no Sakoe-Chiba band")
        return edr_many(query, candidates, epsilon, bounds=bounds, band=band)
    if epsilon < 0.0:
        raise ValueError("matching threshold epsilon must be non-negative")
    query_points = _points(query)
    m = len(query_points)
    count = len(candidates)
    results = np.empty(count, dtype=np.float64)
    if count == 0:
        return results
    points = [_points(candidate) for candidate in candidates]
    lengths = np.array([len(p) for p in points], dtype=np.int64)

    bounds_array: Optional[np.ndarray] = None
    if bounds is not None:
        bounds_array = np.ascontiguousarray(
            np.broadcast_to(np.asarray(bounds, dtype=np.float64), (count,))
        )

    if m == 0:
        results[:] = 0.0 if free_start else lengths
        return results

    active_list = []
    for position, candidate_points in enumerate(points):
        n = len(candidate_points)
        if n == 0:
            results[position] = float(m)
            continue
        if candidate_points.shape[1] != query_points.shape[1]:
            raise ValueError("trajectories must have the same spatial arity")
        active_list.append(position)
    if not active_list:
        return results

    active = np.array(active_list, dtype=np.int64)
    active_lengths = lengths[active]
    width = int(active_lengths.max())
    words = (width + 63) // 64
    dims = query_points.shape[1]

    # Per-axis coordinate planes, padded with +inf (which can never
    # ε-match) to the shared real width; the boolean scratch buffer
    # carries the additional padding out to whole 64-bit words.
    coords = np.full((dims, active.size, width), np.inf, dtype=np.float64)
    for row, position in enumerate(active):
        candidate_points = points[position]
        coords[:, row, : len(candidate_points)] = candidate_points.T

    # One contiguous (candidates,) vector per 64-bit block: python-list
    # indexing is free, every word operation runs on a contiguous array,
    # and the common one-word case never touches a column stride.
    vp_blocks = [
        np.full(active.size, _ZERO if free_start else _ONES, dtype=np.uint64)
        for _ in range(words)
    ]  # D[j, 0] = j, or 0 when any start is free
    vn_blocks = [np.zeros(active.size, dtype=np.uint64) for _ in range(words)]
    masks = _length_masks(active_lengths, words)
    use_bounds = bounds_array is not None
    active_bounds = bounds_array[active] if use_bounds else None

    chunk_rows = min(_EQ_CHUNK_ROWS, m)
    bools = np.zeros((chunk_rows, active.size, words * 64), dtype=bool)
    diff = np.empty((chunk_rows, active.size, width), dtype=np.float64)

    eq_chunk: Optional[np.ndarray] = None
    chunk_base = 0
    chunk_stop = 0
    for i in range(1, m + 1):
        row = i - 1
        if row >= chunk_stop:
            chunk_base = row
            chunk_stop = min(m, row + _EQ_CHUNK_ROWS)
            eq_chunk = _pack_eq_chunk(
                coords, query_points[chunk_base:chunk_stop], epsilon, bools, diff
            )
        eq_row = eq_chunk[row - chunk_base]

        # The boundary row D[0, i] = i feeds a +1 horizontal carry into
        # block 0; later blocks chain the previous block's carry-out.
        hp_in = _ONE
        hn_in = _ZERO
        last = words - 1
        for block in range(words):
            vp_block = vp_blocks[block]
            vn_block = vn_blocks[block]
            eq_block = eq_row[:, block]
            xv = eq_block | vn_block
            if block:  # Hyyrö's negative-carry fixup (block 0 carry is +1)
                eq_block = eq_block | hn_in
            xh = (((eq_block & vp_block) + vp_block) ^ vp_block) | eq_block
            hp = vn_block | ~(xh | vp_block)
            hn = vp_block & xh
            if block != last:
                hp_out = hp >> _SHIFT_MSB
                hn_out = hn >> _SHIFT_MSB
            hp = hp << _ONE
            hp |= hp_in
            hn = hn << _ONE
            if block:
                hn |= hn_in
            vp_blocks[block] = hn | ~(xv | hp)
            vn_blocks[block] = hp & xv
            if block != last:
                hp_in = hp_out
                hn_in = hn_out

        if use_bounds and (i == m or i % _BOUND_CHECK_STRIDE == 0):
            # Exact masked row minimum: i + min(0, min_j prefix_j) over
            # real candidate positions only.  Same value, same <= test
            # as edr_many — identical abandonment pattern (see the
            # stride note above for why sparse checks don't change it).
            vp_masked = np.stack(vp_blocks, axis=1)
            vp_masked &= masks
            vn_masked = np.stack(vn_blocks, axis=1)
            vn_masked &= masks
            row_minima = i + _min_prefixes(vp_masked, vn_masked)
            alive = row_minima <= active_bounds
            if not alive.all():
                results[active[~alive]] = EARLY_ABANDONED
                if not alive.any():
                    return results
                active = active[alive]
                active_lengths = active_lengths[alive]
                coords = np.ascontiguousarray(coords[:, alive])
                vp_blocks = [block_bits[alive] for block_bits in vp_blocks]
                vn_blocks = [block_bits[alive] for block_bits in vn_blocks]
                masks = np.ascontiguousarray(masks[alive])
                active_bounds = active_bounds[alive]
                eq_chunk = np.ascontiguousarray(eq_chunk[:, alive])
                new_width = int(active_lengths.max())
                new_words = (new_width + 63) // 64
                if new_words < words:
                    words = new_words
                    vp_blocks = vp_blocks[:words]
                    vn_blocks = vn_blocks[:words]
                    masks = np.ascontiguousarray(masks[:, :words])
                    eq_chunk = np.ascontiguousarray(eq_chunk[:, :, :words])
                if new_width < width:
                    width = new_width
                    coords = np.ascontiguousarray(coords[:, :, :width])
                # Scratch buffers match the compacted shapes; later
                # chunks hold at most the rows still unprocessed.
                rows_dim = min(_EQ_CHUNK_ROWS, max(m - i, 1))
                bools = np.zeros((rows_dim, active.size, words * 64), dtype=bool)
                diff = np.empty((rows_dim, active.size, width), dtype=np.float64)

    vp_masked = np.stack(vp_blocks, axis=1)
    vp_masked &= masks
    vn_masked = np.stack(vn_blocks, axis=1)
    vn_masked &= masks
    if free_start:
        results[active] = m + _min_prefixes(vp_masked, vn_masked)
    else:
        results[active] = m + _net_scores(vp_masked, vn_masked)
    return results


def edr_bitparallel(
    first: TrajectoryLike,
    second: TrajectoryLike,
    epsilon: float,
    bound: Optional[float] = None,
    band: Optional[int] = None,
) -> float:
    """Bit-parallel scalar EDR: drop-in for :func:`~repro.core.edr.edr`.

    Orients like the scalar kernel — the longer trajectory drives the
    update loop, the shorter is packed along bits — so the per-row
    minima (and therefore the early-abandon sentinel pattern) are those
    of ``edr`` itself.  ``band`` is delegated to the exact banded
    scalar kernel.
    """
    if band is not None:
        return edr(first, second, epsilon, bound=bound, band=band)
    first_points = _points(first)
    second_points = _points(second)
    if len(first_points) >= len(second_points):
        text, pattern = first_points, second_points
    else:
        text, pattern = second_points, first_points
    return float(edr_many_bitparallel(text, [pattern], epsilon, bounds=bound)[0])
