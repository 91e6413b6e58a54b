"""ε-tolerant merge join over sorted mean-value Q-grams (PS1 / PS2).

The index-free pruning variants of Section 4.1 pre-sort each trajectory's
mean-value Q-grams once, then count common Q-grams between the query and
a candidate with one merge-style pass: O(l + l_max) per candidate versus
an index probe per Q-gram for the tree-based variants.

Implementation: ``numpy.searchsorted`` locates, for every query Q-gram,
the candidate window whose first coordinate could ε-match.  The window
boundaries are widened by one ULP so no borderline value is lost to
floating-point rounding, then every windowed pair is tested with the
exact ``|a - b| <= eps`` predicate — bit-identical to the brute-force
count, fully vectorized.

Means of q > 1 Q-grams carry running-sum rounding, so callers compare
them at :func:`repro.core.qgram.qgram_match_tolerance` (exactly ε at
q = 1) and pass it here as ``epsilon``.

``count_common_sorted_1d`` handles the one-axis projections (PS1);
``count_common_sorted_2d`` handles full mean value pairs sorted on the
first axis (PS2).  Both count each query Q-gram at most once, the same
(safely over-counting) semantics as
:func:`repro.core.qgram.count_common_qgrams`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "sort_means_1d",
    "sort_means_2d",
    "count_common_sorted_1d",
    "count_common_sorted_2d",
    "merge_join_count",
    "flatten_sorted_means",
    "extend_sorted_means",
    "bulk_count_common",
]

# Windows larger than this fall back to a per-query-point loop instead of
# one flattened allocation (only reachable on adversarial inputs where
# every first coordinate is within eps of every other).
_FLAT_LIMIT = 4_000_000

# The bulk pass flattens its windows this many entries at a time.  Its
# half-dozen int64/float64 work arrays then stay cache-sized: on 1.6k and
# 5k route corpora (ε = 0.5, 40 queries) a 250k chunk measured 14.5 and
# 22.4 ms per query with 10 MiB peak allocation, against 25.3 and 37.9 ms
# and 40 and 77 MiB for one 4M-entry chunk.  Counts do not depend on it.
_BULK_CHUNK = 250_000


def sort_means_1d(means: np.ndarray) -> np.ndarray:
    """Sort one-dimensional mean values ascending (build-time step of PS1)."""
    values = np.asarray(means, dtype=np.float64).ravel()
    return np.sort(values)


def sort_means_2d(means: np.ndarray) -> np.ndarray:
    """Sort mean value pairs lexicographically (build-time step of PS2)."""
    array = np.asarray(means, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError("expected an (n, d) array of mean value pairs")
    order = np.lexsort(array.T[::-1])  # primary key: column 0
    return array[order]


def _windows(
    query_key: np.ndarray, candidate_key: np.ndarray, epsilon: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query [start, end) candidate windows on the sort key.

    Boundaries are widened beyond ``key ± eps`` by twice the rounding
    granularity of the match predicate — the predicate computes
    ``|key - c| <= eps`` with the subtraction rounded at magnitude ~eps,
    so a candidate up to ~ulp(eps) outside the exact interval can still
    satisfy it.  The widened window is therefore a superset of every
    float-accepted match; callers re-check the exact predicate inside
    the window, so the final count is bit-identical to brute force.
    """
    slack = 2.0 * np.spacing(np.maximum(np.abs(query_key), epsilon))
    starts = np.searchsorted(candidate_key, query_key - epsilon - slack, side="left")
    ends = np.searchsorted(candidate_key, query_key + epsilon + slack, side="right")
    return starts, ends


def _count_windowed_matches(
    query: np.ndarray,
    candidate_sorted: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    epsilon: float,
) -> int:
    """Query rows with >= 1 exact ε-match inside their candidate window."""
    lengths = ends - starts
    populated = np.nonzero(lengths > 0)[0]
    if not len(populated):
        return 0
    window_lengths = lengths[populated]
    total = int(window_lengths.sum())
    if total > _FLAT_LIMIT:
        count = 0
        for i in populated:
            window = candidate_sorted[starts[i] : ends[i]]
            if np.any(np.all(np.abs(window - query[i]) <= epsilon, axis=-1)):
                count += 1
        return count
    # Flatten all windows into one index vector: row_ids says which query
    # row each flattened candidate row belongs to.
    row_ids = np.repeat(populated, window_lengths)
    window_offsets = np.arange(total) - np.repeat(
        np.cumsum(window_lengths) - window_lengths, window_lengths
    )
    flat_indices = np.repeat(starts[populated], window_lengths) + window_offsets
    differences = np.abs(candidate_sorted[flat_indices] - query[row_ids])
    if differences.ndim == 1:
        matched = differences <= epsilon
    else:
        matched = np.all(differences <= epsilon, axis=1)
    return int(np.unique(row_ids[matched]).size)


def count_common_sorted_1d(
    query_sorted: np.ndarray, candidate_sorted: np.ndarray, epsilon: float
) -> int:
    """Query Q-grams with an ε-match in the candidate; both inputs sorted."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    query_sorted = np.asarray(query_sorted, dtype=np.float64).ravel()
    candidate_sorted = np.asarray(candidate_sorted, dtype=np.float64).ravel()
    if len(query_sorted) == 0 or len(candidate_sorted) == 0:
        return 0
    starts, ends = _windows(query_sorted, candidate_sorted, epsilon)
    return _count_windowed_matches(
        query_sorted, candidate_sorted, starts, ends, epsilon
    )


def count_common_sorted_2d(
    query_sorted: np.ndarray, candidate_sorted: np.ndarray, epsilon: float
) -> int:
    """Query mean pairs with an ε-match in the candidate; both sorted on axis 0."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    query_sorted = np.asarray(query_sorted, dtype=np.float64)
    candidate_sorted = np.asarray(candidate_sorted, dtype=np.float64)
    if len(query_sorted) == 0 or len(candidate_sorted) == 0:
        return 0
    starts, ends = _windows(
        query_sorted[:, 0], candidate_sorted[:, 0], epsilon
    )
    return _count_windowed_matches(
        query_sorted, candidate_sorted, starts, ends, epsilon
    )


def flatten_sorted_means(
    per_trajectory: "list[np.ndarray]",
) -> Tuple[np.ndarray, np.ndarray]:
    """One globally sorted mean array over a whole database, with owner ids.

    Concatenates every trajectory's mean-value Q-grams and sorts the pool
    by the first coordinate (stable), returning ``(values, owner_ids)``.
    This is the build-time artifact of the *bulk* merge join: one
    ``searchsorted`` pass over the pool replaces N per-candidate joins.
    A cold build is :func:`extend_sorted_means` of the empty pool.
    """
    empty = np.empty(0, dtype=np.int64)
    return extend_sorted_means(
        (empty.astype(np.float64), empty), np.zeros(0, dtype=bool), per_trajectory
    )


def extend_sorted_means(
    pool: Tuple[np.ndarray, np.ndarray],
    keep: np.ndarray,
    per_trajectory: "list[np.ndarray]",
) -> Tuple[np.ndarray, np.ndarray]:
    """The pool of trajectories ``keep`` of ``pool``, then ``per_trajectory``.

    ``keep`` is a boolean mask over the trajectories ``pool`` was built
    from; the kept ones are renumbered in order and ``per_trajectory``
    follow them.  The result equals :func:`flatten_sorted_means` over the
    same trajectory list element for element: the kept entries already
    sit in the cold build's stable order, and every new entry goes after
    the kept entries with an equal key, because its owner id is larger.
    """
    values, owners = pool
    keep = np.asarray(keep, dtype=bool)
    kept = int(np.count_nonzero(keep))
    fresh = [
        np.atleast_1d(np.asarray(means, dtype=np.float64))
        for means in per_trajectory
    ]
    if fresh:
        new_values = np.concatenate(fresh)
        new_owners = np.repeat(
            np.arange(kept, kept + len(fresh), dtype=np.int64),
            [len(means) for means in fresh],
        )
        order = np.argsort(_key(new_values), kind="stable")
        new_values, new_owners = new_values[order], new_owners[order]
    else:
        new_values, new_owners = values[:0], owners[:0]
    if not kept:
        return new_values, new_owners
    # Gather the result from the old pool followed by the new entries:
    # integer takes, which numpy runs far faster than boolean masks.
    entries = np.flatnonzero(keep[owners])
    renumber = np.cumsum(keep, dtype=np.int64) - 1
    slots = np.searchsorted(
        _key(values).take(entries), _key(new_values), side="right"
    ) + np.arange(len(new_values))
    source = np.empty(len(entries) + len(new_values), dtype=np.int64)
    old = np.ones(len(source), dtype=bool)
    old[slots] = False
    source[old] = entries
    source[slots] = np.arange(len(values), len(values) + len(new_values))
    merged = np.concatenate([values, new_values]).take(source, axis=0)
    merged_owners = np.concatenate([renumber.take(owners), new_owners]).take(source)
    return merged, merged_owners


def _key(values: np.ndarray) -> np.ndarray:
    """The sort key of pooled means: the value, or its first coordinate."""
    return values if values.ndim == 1 else values[:, 0]


def bulk_count_common(
    query_sorted: np.ndarray,
    pool_values: np.ndarray,
    pool_owners: np.ndarray,
    trajectory_count: int,
    epsilon: float,
) -> np.ndarray:
    """Common Q-gram counts of the query against *every* trajectory at once.

    ``pool_values``/``pool_owners`` come from :func:`flatten_sorted_means`.
    Returns an ``(trajectory_count,)`` int64 array whose entry ``t``
    equals ``count_common_sorted_1d/2d(query_sorted, candidate_t, eps)``
    bit for bit: the same widened ``searchsorted`` windows and the same
    exact ε re-check are applied to the pooled array, and each (query
    Q-gram, trajectory) pair is deduplicated before counting so every
    query Q-gram still counts at most once per trajectory.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    counts = np.zeros(trajectory_count, dtype=np.int64)
    query_sorted = np.asarray(query_sorted, dtype=np.float64)
    if len(query_sorted) == 0 or len(pool_values) == 0:
        return counts
    query_key = _key(query_sorted)
    starts, ends = _windows(query_key, _key(pool_values), epsilon)
    lengths = ends - starts
    populated = np.nonzero(lengths > 0)[0]
    if not len(populated):
        return counts

    # Chunk query rows so no flattened window allocation exceeds the cap.
    cumulative = np.cumsum(lengths[populated])
    boundaries = [0]
    while boundaries[-1] < len(populated):
        base = cumulative[boundaries[-1]] - lengths[populated[boundaries[-1]]]
        stop = int(np.searchsorted(cumulative, base + _BULK_CHUNK, side="right"))
        boundaries.append(max(stop, boundaries[-1] + 1))
    row_to_local = np.empty(len(query_key), dtype=np.int64)
    for begin, end in zip(boundaries, boundaries[1:]):
        rows = populated[begin:end]
        window_lengths = lengths[rows]
        total = int(window_lengths.sum())
        row_ids = np.repeat(rows, window_lengths)
        window_offsets = np.arange(total) - np.repeat(
            np.cumsum(window_lengths) - window_lengths, window_lengths
        )
        flat_indices = np.repeat(starts[rows], window_lengths) + window_offsets
        if pool_values.ndim == 1:
            matched = (
                np.abs(pool_values[flat_indices] - query_sorted[row_ids])
                <= epsilon
            )
        else:
            # The window already confines axis 0 to within eps plus the
            # rounding slack, so axis 1 rejects most pairs: test it first
            # on a single-column gather, then re-check axis 0 exactly for
            # the few survivors.
            matched = (
                np.abs(pool_values[flat_indices, 1] - query_sorted[row_ids, 1])
                <= epsilon
            )
            survivors = np.nonzero(matched)[0]
            matched[survivors] = (
                np.abs(
                    pool_values[flat_indices[survivors], 0]
                    - query_sorted[row_ids[survivors], 0]
                )
                <= epsilon
            )
        matched_owners = pool_owners[flat_indices[matched]]
        # Deduplicate (query row, trajectory) pairs.  A per-chunk boolean
        # bitmap is O(matches) and branch-free; fall back to the
        # sort-based dedup when the bitmap would be too large.
        if len(rows) * trajectory_count <= 4 * _FLAT_LIMIT:
            row_to_local[rows] = np.arange(len(rows), dtype=np.int64)
            seen = np.zeros(len(rows) * trajectory_count, dtype=bool)
            seen[
                row_to_local[row_ids[matched]] * np.int64(trajectory_count)
                + matched_owners
            ] = True
            counts += seen.reshape(len(rows), trajectory_count).sum(
                axis=0, dtype=np.int64
            )
        else:
            pair_keys = (
                row_ids[matched] * np.int64(trajectory_count) + matched_owners
            )
            owners_of_pairs = np.unique(pair_keys) % trajectory_count
            counts += np.bincount(owners_of_pairs, minlength=trajectory_count)
    return counts


def merge_join_count(
    query_means: np.ndarray, candidate_sorted: np.ndarray, epsilon: float
) -> Tuple[int, int]:
    """Convenience wrapper dispatching on dimensionality.

    Returns ``(common_count, query_qgram_count)``.  ``query_means`` is
    sorted here (queries are not preprocessed at build time).
    """
    query_means = np.asarray(query_means, dtype=np.float64)
    if query_means.ndim == 1 or query_means.shape[1] == 1:
        query_sorted = sort_means_1d(query_means)
        flat_candidate = np.asarray(candidate_sorted, dtype=np.float64).ravel()
        return (
            count_common_sorted_1d(query_sorted, flat_candidate, epsilon),
            len(query_sorted),
        )
    query_sorted = sort_means_2d(query_means)
    return (
        count_common_sorted_2d(query_sorted, candidate_sorted, epsilon),
        len(query_sorted),
    )
