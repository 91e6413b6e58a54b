"""Batched EDR verification: many candidates through one row DP.

The refinement phase of every exact engine verifies surviving candidates
with true EDR computations.  The scalar kernel (:func:`repro.core.edr.edr`)
runs one Python-level loop iteration per element of the longer
trajectory, so verifying ``C`` candidates costs ``sum(len_i)`` Python
iterations with tiny numpy row vectors — interpreter overhead dominates.

:func:`edr_many` stacks the row DP across all candidates instead: the
candidates are padded to a shared column width ``W`` and the whole batch
advances one query element at a time through a single
``(candidates, W + 1)`` array — the match row, the tentative
(up/diagonal) minimum, and the unit-cost left-propagation running
minimum are each one vectorized call for the entire batch.  The Python
loop runs ``len(query)`` times total instead of once per (candidate,
element) pair.

Early abandoning works per candidate through *active-set compaction*: a
vector of bounds (in k-NN engines, the evolving k-th best distance)
kills candidates whose masked row minimum exceeds their bound, and the
batch physically shrinks — dead candidates stop paying for match rows,
and the shared width shrinks when the longest survivor allows it.

Exactness contract (property-tested in ``tests/test_edr_batch.py``):

* every finite entry of the result equals ``edr(query, candidate)``
  bit-for-bit (the DP performs the same float64 operations on the same
  integer-valued cells, only stacked);
* an :data:`~repro.core.edr.EARLY_ABANDONED` entry proves the true
  distance exceeds that candidate's bound, exactly like the scalar
  kernel's sentinel — so exact k-NN and range engines may substitute
  ``edr_many`` for a loop of ``edr`` calls without changing any answer;
* the optional Sakoe-Chiba ``band`` gives values identical to the scalar
  kernel's (the band constraint is symmetric, so the fixed
  query-as-rows orientation used here cannot change it).

Padding soundness: padded columns sit to the *right* of every real
column and the DP only propagates down and rightward, so they can never
influence a real cell; the abandonment test masks them out so a padded
cell can never keep a dead candidate alive.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .edr import EARLY_ABANDONED, _points
from .trajectory import Trajectory

__all__ = [
    "edr_many",
    "edr_many_bucketed",
    "iter_length_buckets",
    "DEFAULT_REFINE_BATCH_SIZE",
]

# Default candidate-batch size for the engines' refinement loops: large
# enough to amortize the per-row Python overhead across the batch, small
# enough that the k-th-best bound still tightens between batches.
DEFAULT_REFINE_BATCH_SIZE = 64

TrajectoryLike = Union[Trajectory, np.ndarray, Sequence]


def edr_many(
    query: TrajectoryLike,
    candidates: Sequence[TrajectoryLike],
    epsilon: float,
    bounds: Optional[Union[float, Sequence[float], np.ndarray]] = None,
    band: Optional[int] = None,
) -> np.ndarray:
    """``EDR(query, candidate)`` for every candidate, in one batched DP.

    Parameters
    ----------
    query:
        The common query trajectory (or raw point array).
    candidates:
        The trajectories to verify.  Lengths and point counts may vary
        freely; callers wanting to limit padding waste should group
        similar lengths per call (:func:`iter_length_buckets`).
    epsilon:
        Matching threshold of Definition 1.  Must be non-negative.
    bounds:
        Optional early-abandoning bound(s): a scalar applied to every
        candidate or one value per candidate.  A candidate whose DP row
        minimum exceeds its bound is provably farther than the bound and
        its result becomes :data:`~repro.core.edr.EARLY_ABANDONED`; the
        batch then compacts to the survivors.
    band:
        Optional Sakoe-Chiba band half-width, as in the scalar kernel.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of ``len(candidates)`` entries: the exact EDR,
        or infinity for abandoned candidates.
    """
    if epsilon < 0.0:
        raise ValueError("matching threshold epsilon must be non-negative")
    if band is not None and band < 0:
        raise ValueError("band half-width must be non-negative")
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

    # Empty-trajectory rules come before everything else, exactly like
    # the scalar kernel: EDR against an empty sequence is the other
    # sequence's length, with no band or bound consulted.
    if m == 0:
        results[:] = lengths
        return results

    active_list = []
    for position, candidate_points in enumerate(points):
        n = len(candidate_points)
        if n == 0:
            results[position] = float(m)
            continue
        if candidate_points.shape[1] != query_points.shape[1]:
            raise ValueError("trajectories must have the same spatial arity")
        if band is not None and abs(m - n) > band:
            results[position] = EARLY_ABANDONED
            continue
        active_list.append(position)
    if not active_list:
        return results

    active = np.array(active_list, dtype=np.int64)
    active_lengths = lengths[active]
    width = int(active_lengths.max())
    dims = query_points.shape[1]

    # Candidates padded to the shared width with +inf points: an inf
    # coordinate can never epsilon-match, so padded elements always cost
    # a full edit — and, sitting right of every real column, never
    # influence a real cell anyway.
    padded = np.full((active.size, width, dims), np.inf, dtype=np.float64)
    for row, position in enumerate(active):
        candidate_points = points[position]
        padded[row, : len(candidate_points)] = candidate_points

    indices = np.arange(width + 1, dtype=np.float64)
    column_numbers = np.arange(width + 1, dtype=np.int64)
    previous = np.tile(indices, (active.size, 1))  # D[0, j] = j, per candidate
    use_bounds = bounds_array is not None
    active_bounds = bounds_array[active] if use_bounds else None

    for i in range(1, m + 1):
        element = query_points[i - 1]
        # match row for the whole batch: Chebyshev test per axis, with
        # the same early-exit idea as match_matrix for higher arities.
        matches = np.abs(padded[:, :, 0] - element[0]) <= epsilon
        for axis in range(1, dims):
            if not matches.any():
                break
            matches &= np.abs(padded[:, :, axis] - element[axis]) <= epsilon
        subcost = np.where(matches, 0.0, 1.0)

        tentative = np.empty((active.size, width + 1), dtype=np.float64)
        tentative[:, 0] = float(i)  # D[i, 0] = i (delete the first i elements)
        np.minimum(
            previous[:, 1:] + 1.0,
            previous[:, :-1] + subcost,
            out=tentative[:, 1:],
        )
        if band is not None:
            low = i - band
            high = i + band
            if low > 1:
                tentative[:, 1:low] = np.inf
            if high < width:
                tentative[:, high + 1 :] = np.inf
            if low > 0:
                tentative[:, 0] = np.inf
        if use_bounds:
            # Row minimum over *real* columns only: a padded cell may sit
            # below the candidate's true row minimum and must not keep it
            # alive.  Every DP path to the final cell crosses each row,
            # and step costs are non-negative, so row-min > bound proves
            # the final distance exceeds the bound.  The test runs on
            # ``tentative`` — before the left-propagation running-min
            # pass — which is exact because that pass can only reproduce
            # or raise the row's prefix minimum (``current[j]`` is
            # ``min_{k<=j} tentative[k] + (j - k)`` and real columns form
            # a prefix), so masked minima agree and the abandonment
            # pattern is unchanged.  Testing first means a batch that
            # fully dies skips the propagation pass outright, and one
            # that shrinks propagates only the survivors.
            masked = np.where(
                column_numbers[None, :] <= active_lengths[:, None],
                tentative,
                np.inf,
            )
            alive = masked.min(axis=1) <= active_bounds
            if not alive.all():
                results[active[~alive]] = EARLY_ABANDONED
                if not alive.any():
                    return results
                # Active-set compaction: the batch physically shrinks.
                active = active[alive]
                active_lengths = active_lengths[alive]
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
        current = indices + np.minimum.accumulate(tentative - indices, axis=1)
        if band is not None:
            # Re-mask so right-propagation cannot escape the band (see
            # the scalar kernel for why this is exact).
            low = i - band
            high = i + band
            if low > 1:
                current[:, 1:low] = np.inf
            if high < width:
                current[:, high + 1 :] = np.inf
            if low > 0:
                current[:, 0] = np.inf
        previous = current

    results[active] = previous[np.arange(active.size), active_lengths]
    return results


def iter_length_buckets(
    lengths: Union[Sequence[int], np.ndarray],
    batch_size: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield position batches grouped by trajectory length.

    Positions (indices into ``lengths``) come out sorted by length and
    sliced into batches of at most ``batch_size``, so each batch pads
    its members to a width close to their own lengths instead of the
    global maximum.  ``batch_size`` of ``None`` (or a non-positive
    value) yields one batch per distinct length neighbourhood — i.e. a
    single sorted batch.
    """
    order = np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")
    if order.size == 0:
        return
    if batch_size is None or batch_size <= 0:
        batch_size = int(order.size)
    for start in range(0, order.size, batch_size):
        yield order[start : start + batch_size]


def edr_many_bucketed(
    query: TrajectoryLike,
    candidates: Sequence[TrajectoryLike],
    epsilon: float,
    bounds: Optional[Union[float, Sequence[float], np.ndarray]] = None,
    band: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """:func:`edr_many` over length-bucketed batches, results in order.

    Convenience driver for bulk pairwise work (distance matrices,
    reference-column precompute) where all candidates are known up
    front: candidates are grouped by length to limit padding waste, and
    the scattered results come back in the original candidate order.

    ``kernel`` picks the batch kernel by name (see
    :mod:`repro.core.kernels`); ``None`` or ``"batched"`` keeps
    :func:`edr_many`, the batched kernel, while the search engines'
    ``edr_kernel=None`` resolves to ``"bitparallel"``.  Every kernel
    returns identical results.
    """
    count = len(candidates)
    results = np.empty(count, dtype=np.float64)
    if count == 0:
        return results
    if kernel is None or kernel == "batched":
        batch_kernel = edr_many
    else:
        from .kernels import run_kernel
        from functools import partial

        batch_kernel = partial(run_kernel, kernel)
    lengths = [len(_points(candidate)) for candidate in candidates]
    bounds_array: Optional[np.ndarray] = None
    if bounds is not None:
        bounds_array = np.ascontiguousarray(
            np.broadcast_to(np.asarray(bounds, dtype=np.float64), (count,))
        )
    for bucket in iter_length_buckets(lengths, batch_size):
        bucket_bounds = bounds_array[bucket] if bounds_array is not None else None
        results[bucket] = batch_kernel(
            query,
            [candidates[int(position)] for position in bucket],
            epsilon,
            bounds=bucket_bounds,
            band=band,
        )
    return results
