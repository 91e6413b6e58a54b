"""Bit-parallel EDR kernels (Myers 1999; Hyyrö 2003).

EDR's unit edit costs (paper Definition 2) quantize every cell update to
{0, 1} — exactly the structure Myers' bit-vector algorithm exploits for
Levenshtein distance.  Consecutive DP cells along the candidate axis
differ by -1, 0, or +1, so a whole column is carried in two bit
vectors:

* ``VP`` bit ``j``  =  1  iff  ``D[j+1, i] - D[j, i] = +1``
* ``VN`` bit ``j``  =  1  iff  ``D[j+1, i] - D[j, i] = -1``

(candidate positions along bits, query position ``i`` advancing one
Python-level step at a time — the transpose of :func:`~repro.core
.edr_batch.edr_many`'s row DP, which is value-identical because the EDR
recurrence is symmetric under swapping the sequences).  The classic
character-equality bitmask becomes a per-query-element ε-match bitmask
(:func:`~repro.core.matching.match_bits`): bit ``j`` of the mask is
``match(query_i, candidate_j)``.  One update is a handful of bitwise
operations on the whole column instead of one float min/add chain per
cell.

Word-packing layout
-------------------
Myers and Hyyrö define the recurrence on a word of any width, and a
Python ``int`` is such a word.  :func:`edr_many_bitparallel` holds the
whole batch's ``VP`` and ``VN`` in two ints.  Candidate ``c`` owns a
segment of ``words = width // 64 + 1`` 64-bit words at bit offset
``c * words * 64``; candidate position ``j`` lives at bit ``j`` of its
segment.  The ints' little-endian bytes are therefore the
``(candidates, words)`` ``uint64`` array ``np.packbits(...,
bitorder="little")`` produces, which is how match masks come in
(``int.from_bytes``) and how deltas go out to the byte tables below
(``to_bytes`` / ``np.frombuffer``).

Every segment keeps at least one zero guard bit above its candidate's
last position, and the step keeps both ints inside ``real`` (the bits
of real positions): ``~x`` is taken as ``real & ~x``.  The add's carry
and the shifts then land at most on the guard bit, so no carry ever
crosses into the next candidate, and there is no block chain to
propagate.  A ``start`` int with bit 0 of every segment set feeds the
``+1`` horizontal carry of the boundary row ``D[0, i] = i``.

Early abandoning
----------------
Exact per-row minima come from the vertical-delta words: the DP value at
candidate position ``j`` after query element ``i`` is ``i + prefix_j``
where ``prefix_j`` sums the ±1 bits of ``VP``/``VN`` up to ``j``.  A
16-bit lookup table over (VP byte, VN byte) pairs yields each byte's net
sum and running minimum, so the row minimum (bits past each candidate's
length are zero) costs one table gather per 8 cells.
``row_min > bound`` proves the final distance exceeds the bound (row
minima of the unit-cost DP never decrease), so the candidate's result
becomes :data:`~repro.core.edr.EARLY_ABANDONED` exactly as in
``edr_many`` — the sentinel pattern is byte-for-byte identical because
both kernels compare the same exact integer row minimum to the same
bound.  A check that abandons candidates rebuilds the two ints from the
survivors' segments, narrowed to the survivors' own guard-bit width, so
later steps cost only what is left.

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

# Match bitmasks are packed for several query rows at once, so the
# ε-compares of a chunk are a few big vectorized passes.  A chunk holds
# at most this many DP cells (rows x candidates x padded width): ~50
# rows for a 20-candidate refine batch, 4 rows for 256 long candidates.
# On 74-point queries against 30-120-point candidates, 2^16 measured
# level with 2^17 and ahead of 2^15 and 2^18 on batches of 20, 64 and
# 256 candidates (larger chunks spill the float scratch out of cache).
_EQ_CHUNK_CELLS = 1 << 16

# Bound checks run every 4th query row (and always on the last).  The
# masked row minimum of the unit-cost DP never decreases with the row
# index — every cell of row i+1 derives from a row-i neighbour plus a
# non-negative cost — so a candidate exceeds its bound on some row iff
# it exceeds it on the last row: the abandonment pattern is invariant
# to the check schedule.  Strides 2-16 measured within noise on
# ledger-shape k-NN refines; 4 beat 8 and 16 on the free-start filter,
# whose wide batches shed most of their candidates in the first rows.
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


def _column_masks(lengths: np.ndarray, words: int) -> "tuple[int, int]":
    """``(real, start)`` for segments of ``words`` words: bits ``[0, n)``
    of every candidate's segment, and bit 0 of every segment."""
    bits = np.arange(words * 64) < lengths[:, None]
    real = int.from_bytes(np.packbits(bits, bitorder="little"), "little")
    # Every segment is non-empty and ends below its guard bit, so the
    # shift moves no bit into the next segment's bit 0.
    return real, real ^ (real & (real << 1))


def _words(column: int, count: int, words: int) -> np.ndarray:
    """A column int as its ``(candidates, words)`` ``uint64`` segments."""
    return np.frombuffer(
        column.to_bytes(count * words * 8, "little"), dtype=np.uint64
    ).reshape(count, words)


def _chunk_rows(rows: int, count: int, words: int) -> int:
    """Query rows per ε-match chunk under the :data:`_EQ_CHUNK_CELLS` budget."""
    return max(1, min(rows, _EQ_CHUNK_CELLS // (count * words * 64)))


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
    words = width // 64 + 1  # at least one guard bit above position width-1
    dims = query_points.shape[1]

    # Per-axis coordinate planes, padded with +inf (which can never
    # ε-match) to the shared real width; the boolean scratch buffer
    # carries the additional padding out to whole 64-bit words.
    coords = np.full((dims, active.size, width), np.inf, dtype=np.float64)
    for row, position in enumerate(active):
        candidate_points = points[position]
        coords[:, row, : len(candidate_points)] = candidate_points.T

    # The whole batch's column is one Python int per delta vector:
    # candidate c owns bits [c*words*64, (c+1)*words*64) (module notes).
    real, start = _column_masks(active_lengths, words)
    vp = 0 if free_start else real  # D[j, 0] = j, or 0 when any start is free
    vn = 0
    use_bounds = bounds_array is not None
    active_bounds = bounds_array[active] if use_bounds else None

    chunk_rows = _chunk_rows(m, active.size, words)
    bools = np.zeros((chunk_rows, active.size, words * 64), dtype=bool)
    diff = np.empty((chunk_rows, active.size, width), dtype=np.float64)

    eq_chunk: Optional[np.ndarray] = None
    chunk_base = 0
    chunk_stop = 0
    for i in range(1, m + 1):
        row = i - 1
        if row >= chunk_stop:
            chunk_base = row
            chunk_stop = min(m, row + chunk_rows)
            eq_chunk = _pack_eq_chunk(
                coords, query_points[chunk_base:chunk_stop], epsilon, bools, diff
            )
        eq = int.from_bytes(eq_chunk[row - chunk_base], "little")

        # Myers' step on the whole column, with ``~x`` taken as
        # ``real & ~x == (x | real) ^ x``: the ints stay non-negative
        # (CPython's bitwise ops on negative ints convert through two's
        # complement and cost ~3x) and inside ``real``, so the add carry
        # and the shifts stop at each segment's guard bit.
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = xh | vp
        hp = vn | ((hp | real) ^ hp)
        hn = (vp & xh) << 1
        hp = (hp << 1) | start
        vp = xv | hp
        vp = ((vp | real) ^ vp) | (hn & real)
        vn = hp & xv

        if use_bounds and (i == m or i % _BOUND_CHECK_STRIDE == 0):
            # Exact row minimum: i + min(0, min_j prefix_j) over real
            # candidate positions only.  Same value, same <= test
            # as edr_many — identical abandonment pattern (see the
            # stride note above for why sparse checks don't change it).
            vp_words = _words(vp, active.size, words)
            vn_words = _words(vn, active.size, words)
            row_minima = i + _min_prefixes(vp_words, vn_words)
            alive = row_minima <= active_bounds
            if not alive.all():
                results[active[~alive]] = EARLY_ABANDONED
                if not alive.any():
                    return results
                active = active[alive]
                active_lengths = active_lengths[alive]
                active_bounds = active_bounds[alive]
                width = int(active_lengths.max())
                words = width // 64 + 1
                # Rebuild the column ints from the surviving segments,
                # narrowed to the survivors' guard-bit width.
                vp = int.from_bytes(vp_words[alive, :words].tobytes(), "little")
                vn = int.from_bytes(vn_words[alive, :words].tobytes(), "little")
                real, start = _column_masks(active_lengths, words)
                coords = np.ascontiguousarray(coords[:, alive, :width])
                eq_chunk = np.ascontiguousarray(eq_chunk[:, alive, :words])
                # Scratch buffers match the compacted shapes; later
                # chunks hold at most the rows still unprocessed.
                chunk_rows = _chunk_rows(max(m - i, 1), active.size, words)
                bools = np.zeros((chunk_rows, active.size, words * 64), dtype=bool)
                diff = np.empty((chunk_rows, active.size, width), dtype=np.float64)

    vp_words = _words(vp, active.size, words)
    vn_words = _words(vn, active.size, words)
    if free_start:
        results[active] = m + _min_prefixes(vp_words, vn_words)
    else:
        results[active] = m + _net_scores(vp_words, vn_words)
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
