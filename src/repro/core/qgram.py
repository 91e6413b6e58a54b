"""Mean-value Q-grams for EDR pruning (paper Section 4.1).

A Q-gram of a trajectory is a window of ``q`` consecutive elements.  Two
Q-grams match when every element pair ε-matches (Definition 3), and the
count-filtering bound of Jokinen & Ukkonen (Theorem 1) transfers to EDR:

    ``EDR(R, S) <= k``  implies  ``common Q-grams >= max(m, n) - q + 1 - k*q``

so a candidate whose common-Q-gram count falls below the bound implied by
the current k-th nearest distance can be skipped without false dismissal.

Storing all Q-grams is expensive, so the paper stores only their *mean
value pairs*: Theorem 2 shows that matching Q-grams have matching means,
hence counting mean matches over-counts true Q-gram matches — which is
exactly the safe direction for pruning.  Theorem 4 extends the bound to
single-axis projections, enabling one-dimensional (B+-tree indexable)
variants at reduced pruning power.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .matching import match_matrix
from .trajectory import Trajectory

__all__ = [
    "qgram_windows",
    "mean_value_qgrams",
    "count_common_qgrams",
    "mean_rounding_magnitude",
    "qgram_match_tolerance",
    "common_qgram_lower_bound",
    "can_prune_by_qgrams",
]


def _points(trajectory: Union[Trajectory, np.ndarray, Sequence]) -> np.ndarray:
    if isinstance(trajectory, Trajectory):
        return trajectory.points
    array = np.asarray(trajectory, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    return array


def qgram_windows(
    trajectory: Union[Trajectory, np.ndarray, Sequence], q: int
) -> np.ndarray:
    """All ``n - q + 1`` windows of ``q`` consecutive elements.

    Returns an ``(n - q + 1, q, d)`` array (empty when the trajectory is
    shorter than ``q``).  This is the raw form the paper avoids storing;
    it is exposed for tests and for the exact-window pruning ablation.
    """
    points = _points(trajectory)
    if q < 1:
        raise ValueError("Q-gram size must be at least 1")
    n, d = points.shape
    count = n - q + 1
    if count <= 0:
        return np.empty((0, q, d), dtype=np.float64)
    return np.stack([points[i : i + q] for i in range(count)])


def mean_value_qgrams(
    trajectory: Union[Trajectory, np.ndarray, Sequence], q: int
) -> np.ndarray:
    """Mean value pair of every Q-gram, shape ``(n - q + 1, d)``.

    Computed with a cumulative sum so building the pruning artifact for a
    whole database is linear.  By Theorem 2 these means are all that must
    be stored: matching Q-grams have matching means.  For ``q = 1`` the
    means are the points themselves, returned verbatim: cumsum
    differencing drifts by a few ulps, and a drifted mean can miss an
    ε-match that sits exactly on the boundary (a false dismissal).
    """
    points = _points(trajectory)
    if q < 1:
        raise ValueError("Q-gram size must be at least 1")
    n, d = points.shape
    count = n - q + 1
    if count <= 0:
        return np.empty((0, d), dtype=np.float64)
    if q == 1:
        return np.array(points, dtype=np.float64)
    cumulative = np.vstack([np.zeros((1, d)), np.cumsum(points, axis=0)])
    return (cumulative[q:] - cumulative[:-q]) / q


def mean_rounding_magnitude(trajectories) -> float:
    """Scale of the rounding error in the trajectories' Q-gram means.

    :func:`mean_value_qgrams` differences a running sum, whose rounding
    error grows with the partial sums: every computed mean is within
    ``2 u · n · S`` of the exact one (``u`` the unit roundoff, ``n`` the
    length, ``S`` the largest per-axis sum of absolute coordinates).
    Returns the largest ``n · S`` over ``trajectories``; see
    :func:`qgram_match_tolerance`.
    """
    magnitude = 0.0
    for trajectory in trajectories:
        points = _points(trajectory)
        if len(points):
            magnitude = max(
                magnitude, float(len(points) * np.abs(points).sum(axis=0).max())
            )
    return magnitude


def qgram_match_tolerance(epsilon: float, q: int, magnitude: float) -> float:
    """The threshold at which mean-value Q-grams must be compared.

    Theorem 2 (matching Q-grams have matching means) holds in exact
    arithmetic; in float64 two Q-grams whose elements all pass the
    ``|a - b| <= eps`` predicate can have computed means a few ulps
    more than ε apart, and a missed mean match makes the Q-gram bound
    exceed EDR.  Comparing at this widened threshold instead keeps every
    such match.  It only ever adds matches, which keeps the count an
    upper bound.

    ``magnitude`` must bound :func:`mean_rounding_magnitude` of both
    sides.  With ``u·x <= spacing(x)``, both means' rounding errors
    (``4 u · magnitude``) plus the predicate's own rounding of ε
    (``3 u · ε``) stay below the added terms.  For ``q = 1`` the means
    are the points themselves, so the threshold is exactly ε.
    """
    if q == 1:
        return float(epsilon)
    return float(epsilon + 4 * np.spacing(epsilon) + 5 * np.spacing(magnitude))


def count_common_qgrams(
    first_means: np.ndarray, second_means: np.ndarray, epsilon: float
) -> int:
    """Number of ``first`` mean-value Q-grams with an ε-match in ``second``.

    Each query Q-gram counts at most once.  This count is an upper bound
    on the exact common-Q-gram count of Theorem 1 (approximate matching
    can only create more matches), which keeps the pruning test safe.
    A brute-force matrix formulation; the merge-join and index engines in
    :mod:`repro.index` compute the same count with better complexity.
    """
    if len(first_means) == 0 or len(second_means) == 0:
        return 0
    matches = match_matrix(first_means, second_means, epsilon)
    return int(np.count_nonzero(matches.any(axis=1)))


def common_qgram_lower_bound(m: int, n: int, q: int, k: float) -> float:
    """Theorem 1's bound: trajectories within EDR ``k`` share at least
    ``max(m, n) - q + 1 - k*q`` common Q-grams."""
    if q < 1:
        raise ValueError("Q-gram size must be at least 1")
    return max(m, n) - q + 1 - k * q


def can_prune_by_qgrams(
    common_count: int, m: int, n: int, q: int, best_so_far: float
) -> bool:
    """True when the candidate provably cannot beat ``best_so_far``.

    Contrapositive of Theorem 1: if the common count is *below* the bound
    for ``k = best_so_far`` then ``EDR > best_so_far`` and the candidate
    can be skipped.  A non-positive bound can never prune.
    """
    if not np.isfinite(best_so_far):
        return False
    return common_count < common_qgram_lower_bound(m, n, q, best_so_far)
