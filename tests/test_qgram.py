"""Tests for mean-value Q-grams and the Theorem 1/2/4 pruning bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import edr, mean_value_qgrams
from repro.core.matching import match_matrix
from repro.core.qgram import (
    can_prune_by_qgrams,
    common_qgram_lower_bound,
    count_common_qgrams,
    qgram_windows,
)


def trajectory_strategy(max_length=14, ndim=2, min_size=1):
    point = st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False) for _ in range(ndim)])
    return st.lists(point, min_size=min_size, max_size=max_length).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, ndim)
    )


class TestWindows:
    def test_window_count(self):
        t = np.arange(10.0).reshape(5, 2)
        assert qgram_windows(t, 2).shape == (4, 2, 2)

    def test_window_contents(self):
        t = np.arange(8.0).reshape(4, 2)
        windows = qgram_windows(t, 3)
        assert np.array_equal(windows[1], t[1:4])

    def test_too_short_trajectory_yields_empty(self):
        assert qgram_windows(np.zeros((2, 2)), 5).shape == (0, 5, 2)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            qgram_windows(np.zeros((3, 2)), 0)


class TestMeanValues:
    def test_size_one_qgrams_are_the_points(self):
        t = np.arange(10.0).reshape(5, 2)
        assert np.array_equal(mean_value_qgrams(t, 1), t)

    def test_means_equal_window_means(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(12, 2))
        for q in (1, 2, 3, 4):
            expected = qgram_windows(t, q).mean(axis=1)
            assert np.allclose(mean_value_qgrams(t, q), expected)

    def test_paper_example(self):
        # S = [(1,2),(3,4),(5,6),(7,8),(9,10)], q=3 -> means (3,4),(5,6),(7,8)
        s = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
        assert np.allclose(mean_value_qgrams(s, 3), [[3, 4], [5, 6], [7, 8]])

    def test_theorem_2_matching_qgrams_have_matching_means(self):
        """If every element pair of two Q-grams ε-matches, so do the means."""
        rng = np.random.default_rng(1)
        epsilon = 0.5
        for _ in range(200):
            q = int(rng.integers(1, 5))
            a = rng.normal(size=(q, 2))
            b = a + rng.uniform(-epsilon, epsilon, size=(q, 2))
            assert np.all(np.abs(a - b) <= epsilon)  # windows match
            mean_a = a.mean(axis=0)
            mean_b = b.mean(axis=0)
            assert np.all(np.abs(mean_a - mean_b) <= epsilon + 1e-12)


class TestCommonCount:
    def test_identical_trajectories_share_all_qgrams(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(10, 2))
        means = mean_value_qgrams(t, 2)
        assert count_common_qgrams(means, means, 0.1) == len(means)

    def test_disjoint_trajectories_share_none(self):
        a = mean_value_qgrams(np.zeros((5, 2)), 1)
        b = mean_value_qgrams(np.full((5, 2), 100.0), 1)
        assert count_common_qgrams(a, b, 0.5) == 0

    def test_each_query_qgram_counts_once(self):
        query = np.array([[0.0, 0.0]])
        candidate = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]])
        assert count_common_qgrams(query, candidate, 0.5) == 1

    def test_empty_inputs(self):
        assert count_common_qgrams(np.empty((0, 2)), np.zeros((3, 2)), 0.5) == 0

    def test_overcounts_exact_common_qgrams(self):
        """The mean-value count must be >= the exact full-window count."""
        rng = np.random.default_rng(3)
        epsilon = 0.4
        for _ in range(30):
            a = rng.normal(size=(int(rng.integers(2, 10)), 2))
            b = rng.normal(size=(int(rng.integers(2, 10)), 2))
            q = 2
            windows_a = qgram_windows(a, q).reshape(-1, 2 * q)
            windows_b = qgram_windows(b, q).reshape(-1, 2 * q)
            exact = int(
                np.count_nonzero(
                    match_matrix(windows_a, windows_b, epsilon).any(axis=1)
                )
            ) if len(windows_a) and len(windows_b) else 0
            approx = count_common_qgrams(
                mean_value_qgrams(a, q), mean_value_qgrams(b, q), epsilon
            )
            assert approx >= exact


class TestTheoremBounds:
    @settings(max_examples=150, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.integers(min_value=1, max_value=4),
        st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_theorem_1_count_filter(self, a, b, q, epsilon):
        """common >= max(m,n) - q + 1 - EDR*q — the pruning soundness bound."""
        k = edr(a, b, epsilon)
        common = count_common_qgrams(
            mean_value_qgrams(a, q), mean_value_qgrams(b, q), epsilon
        )
        assert common >= common_qgram_lower_bound(len(a), len(b), q, k)

    @settings(max_examples=150, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.integers(min_value=1, max_value=3),
        st.floats(0.05, 1.5, allow_nan=False),
        st.integers(min_value=0, max_value=1),
    )
    def test_theorem_4_projection_filter(self, a, b, q, epsilon, axis):
        """The count bound holds on single-axis projections with full EDR."""
        k = edr(a, b, epsilon)
        common = count_common_qgrams(
            mean_value_qgrams(a[:, axis : axis + 1], q),
            mean_value_qgrams(b[:, axis : axis + 1], q),
            epsilon,
        )
        assert common >= common_qgram_lower_bound(len(a), len(b), q, k)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=8),
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=8),
        st.sampled_from([0.0, -0.1, 1234.5, -3.1e7]),
        st.sampled_from([0.1, 0.05, 0.3]),
        st.integers(min_value=2, max_value=3),
    )
    @example(  # means 0.10000000000000002 apart at eps = 0.1, EDR 0
        [(-2, -2), (-3, -4)], [(-4, 0), (-3, -2)], 0.0, 0.1, 2
    )
    def test_merge_join_bounds_stay_below_edr_on_an_epsilon_lattice(
        self, a, b, offset, epsilon, q
    ):
        """Half-ε lattice points put many element pairs exactly on the
        match boundary, where the running-sum means round apart; the
        scalar and bulk merge-join bounds must still not exceed EDR."""
        from repro import QgramMergeJoinPruner, Trajectory, TrajectoryDatabase

        def lattice(steps):
            return Trajectory(offset + np.array(steps, dtype=np.float64) * epsilon / 2)

        database = TrajectoryDatabase([lattice(b)], epsilon)
        query = lattice(a)
        distance = edr(query, database.trajectories[0], epsilon)
        for two_dimensional in (True, False):
            prepared = QgramMergeJoinPruner(
                database, q=q, two_dimensional=two_dimensional
            ).for_query(query)
            assert prepared.lower_bound(0) <= distance
            assert prepared.bulk_lower_bounds()[0] <= distance

    def test_can_prune_logic(self):
        # max(10, 10) - 1 + 1 - best*1 = 10 - best; common=4 prunes best=5.
        assert can_prune_by_qgrams(4, 10, 10, 1, best_so_far=5.0)
        assert not can_prune_by_qgrams(5, 10, 10, 1, best_so_far=5.0)

    def test_infinite_best_never_prunes(self):
        assert not can_prune_by_qgrams(0, 10, 10, 1, best_so_far=float("inf"))

    def test_bound_invalid_q_raises(self):
        with pytest.raises(ValueError):
            common_qgram_lower_bound(5, 5, 0, 1.0)
