"""Tests for trajectory histograms and the HD lower bound (Theorem 6)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HistogramSpace, Trajectory, edr, histogram_distance


def trajectory_strategy(max_length=12, ndim=2, min_size=1):
    point = st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False) for _ in range(ndim)])
    return st.lists(point, min_size=min_size, max_size=max_length).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, ndim)
    )


class TestSharedBinKeys:
    """A space hands out one key object per distinct bin."""

    def test_histogram_equals_a_plain_counter(self):
        rng = np.random.default_rng(5)
        space = HistogramSpace(origin=[-3.0, -3.0], bin_size=0.7)
        for _ in range(20):
            points = rng.normal(size=(int(rng.integers(0, 40)), 2))
            want = dict(Counter(map(tuple, space.bin_indices(points).tolist())))
            got = space.histogram(points)
            assert got == want
            assert list(got) == list(want)  # first-occurrence key order too
            assert all(type(count) is int for count in got.values())

    def test_rows_on_one_space_share_key_objects(self):
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        first = space.histogram(np.array([[1000.5, 2000.5], [3.5, 4.5]]))
        second = space.histogram(np.array([[3.2, 4.9], [1000.1, 2000.7]]))
        for key in second:
            shared = next(own for own in first if own == key)
            assert shared is key

    def test_separate_spaces_keep_separate_tables(self):
        points = np.array([[1000.5, 2000.5]])
        one = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        other = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        (a,), (b,) = one.histogram(points), other.histogram(points)
        assert a == b and a is not b

    def test_counts_stay_out_of_the_key_table(self):
        # Query histograms are built with counts(), so a stream of
        # far-off queries cannot grow a corpus space's key table.
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        points = np.array([[1000.5, 2000.5], [1000.2, 2000.9]])
        (fresh,) = space.counts(points)
        (shared,) = space.histogram(points)
        assert fresh == shared and fresh is not shared
        assert space.counts(points) == space.histogram(points)


class TestHistogramSpace:
    def test_bin_indices(self):
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        indices = space.bin_indices(np.array([[0.5, 1.5], [2.9, -0.1]]))
        assert indices.tolist() == [[0, 1], [2, -1]]

    def test_histogram_counts(self):
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        histogram = space.histogram(np.array([[0.1], [0.9], [1.5]]))
        assert histogram == {(0,): 2, (1,): 1}

    def test_points_below_origin_get_negative_bins(self):
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        assert space.histogram(np.array([[-0.5]])) == {(-1,): 1}

    def test_for_trajectories_anchors_at_minimum(self):
        trajectories = [Trajectory([[2.0, 3.0], [5.0, 1.0]])]
        space = HistogramSpace.for_trajectories(trajectories, bin_size=1.0)
        assert np.array_equal(space.origin, [2.0, 1.0])

    def test_for_trajectories_axis_projection(self):
        trajectories = [Trajectory([[2.0, 3.0], [5.0, 1.0]])]
        space = HistogramSpace.for_trajectories(trajectories, bin_size=1.0, axis=1)
        assert space.ndim == 1
        assert space.origin[0] == 1.0

    def test_arity_mismatch_raises(self):
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        with pytest.raises(ValueError):
            space.bin_indices(np.zeros((2, 3)))

    def test_non_positive_bin_size_raises(self):
        with pytest.raises(ValueError):
            HistogramSpace(origin=[0.0], bin_size=0.0)

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            HistogramSpace.for_trajectories([], bin_size=1.0)


class TestHistogramDistance:
    def test_identical_histograms(self):
        assert histogram_distance({(0, 0): 3}, {(0, 0): 3}) == 0

    def test_pure_insertion(self):
        assert histogram_distance({(0,): 2}, {(0,): 3}) == 1

    def test_replacement_counts_once(self):
        # surplus in one far bin, deficit in another: one replace step.
        assert histogram_distance({(0,): 1}, {(9,): 1}) == 1

    def test_adjacent_bins_cancel(self):
        """The paper's boundary example: R=[0.9], S=[1.2], eps=1 — elements
        match under EDR, so the HD between their histograms must be 0."""
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        h_r = space.histogram(np.array([[0.9]]))
        h_s = space.histogram(np.array([[1.2]]))
        assert h_r != h_s  # different bins...
        assert histogram_distance(h_r, h_s) == 0  # ...yet free under EDR

    def test_non_adjacent_bins_do_not_cancel(self):
        assert histogram_distance({(0,): 1}, {(2,): 1}) == 1

    def test_diagonal_adjacency_in_two_dimensions(self):
        assert histogram_distance({(0, 0): 1}, {(1, 1): 1}) == 0

    def test_cancellation_is_maximal_not_order_dependent(self):
        """+1/-1/+1/-1 chain where a greedy pairing can strand units: the
        max-flow cancellation must find the perfect matching (HD = 0)."""
        first = {(0,): 1, (2,): 1}
        second = {(1,): 1, (3,): 1}
        assert histogram_distance(first, second) == 0

    def test_chained_matches_regression(self):
        """R's element in bin 0 matches S's in bin 1 while R's in bin 1
        matches S's in bin 2 — EDR can be 0, so HD must be 0 too.  The
        paper's net-first CompHisDist reports 1 here (bins 0 and 2 are
        not adjacent after netting); the flow form must not."""
        first = {(0,): 1, (1,): 1}
        second = {(1,): 1, (2,): 1}
        assert histogram_distance(first, second) == 0

    def test_chained_matches_regression_concrete_trajectories(self):
        """The same chain built from real coordinates: EDR is 0 while the
        two histograms share no multiset overlap pattern."""
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        r = np.array([[0.9], [1.9]])
        s = np.array([[1.1], [2.1]])
        assert edr(r, s, 1.0) == 0.0
        assert histogram_distance(space.histogram(r), space.histogram(s)) == 0

    def test_unbalanced_surplus(self):
        assert histogram_distance({(0,): 5}, {(1,): 2}) == 3

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bins_a = {(int(b),): int(c) for b, c in
                      zip(rng.integers(0, 5, 4), rng.integers(1, 4, 4))}
            bins_b = {(int(b),): int(c) for b, c in
                      zip(rng.integers(0, 5, 4), rng.integers(1, 4, 4))}
            assert histogram_distance(bins_a, bins_b) == histogram_distance(
                bins_b, bins_a
            )


class TestTheorem6LowerBound:
    @settings(max_examples=200, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_hd_lower_bounds_edr(self, a, b, epsilon):
        space = HistogramSpace(origin=[-4.0, -4.0], bin_size=epsilon)
        assert histogram_distance(
            space.histogram(a), space.histogram(b)
        ) <= edr(a, b, epsilon)

    @settings(max_examples=150, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.0, allow_nan=False),
        st.integers(min_value=2, max_value=4),
    )
    def test_corollary_1_larger_bins(self, a, b, epsilon, delta):
        """Bin size delta*eps still lower-bounds EDR at eps (via Theorem 7)."""
        space = HistogramSpace(origin=[-4.0, -4.0], bin_size=delta * epsilon)
        assert histogram_distance(
            space.histogram(a), space.histogram(b)
        ) <= edr(a, b, epsilon)

    @settings(max_examples=150, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.0, allow_nan=False),
        st.integers(min_value=0, max_value=1),
    )
    def test_corollary_1_per_axis(self, a, b, epsilon, axis):
        """Per-axis 1-D histograms still lower-bound EDR (via Theorem 8)."""
        space = HistogramSpace(origin=[-4.0], bin_size=epsilon)
        h_a = space.histogram(a[:, axis : axis + 1])
        h_b = space.histogram(b[:, axis : axis + 1])
        assert histogram_distance(h_a, h_b) <= edr(a, b, epsilon)

    def test_coarser_bins_never_beat_fine_bins(self):
        """Wider bins merge more mass, so their HD can only drop."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=(10, 2))
            b = rng.normal(size=(12, 2))
            epsilon = 0.3
            fine = HistogramSpace(origin=[-5.0, -5.0], bin_size=epsilon)
            fine_hd = histogram_distance(fine.histogram(a), fine.histogram(b))
            assert fine_hd <= edr(a, b, epsilon)


class TestOneDimensionalFastPath:
    """The greedy 1-D cancellation must equal the general max-flow."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(-6, 6), st.integers(1, 5), max_size=8
        ),
        st.dictionaries(
            st.integers(-6, 6), st.integers(1, 5), max_size=8
        ),
    )
    def test_greedy_equals_flow(self, surplus_raw, deficit_raw):
        from .oracles import dinic_max_cancellation
        from repro.core.histogram import _max_cancellation_1d

        surplus = {(k,): v for k, v in surplus_raw.items()}
        deficit = {(k,): v for k, v in deficit_raw.items()}
        assert _max_cancellation_1d(surplus, deficit) == dinic_max_cancellation(
            surplus, deficit
        )

    def test_chain_is_fully_matched(self):
        from repro.core.histogram import _max_cancellation_1d

        assert _max_cancellation_1d({(0,): 1, (1,): 1}, {(1,): 1, (2,): 1}) == 2

    def test_gap_blocks_matching(self):
        from repro.core.histogram import _max_cancellation_1d

        assert _max_cancellation_1d({(0,): 3}, {(5,): 3}) == 0


class TestPaperCompHisDist:
    """The literal Figure 5 algorithm, kept to document its failure mode."""

    def test_agrees_on_simple_cases(self):
        from repro.core.histogram import comphisdist_paper

        assert comphisdist_paper({(0,): 3}, {(0,): 3}) == 0
        assert comphisdist_paper({(0,): 2}, {(0,): 3}) == 1
        assert comphisdist_paper({(0,): 1}, {(1,): 1}) == 0  # adjacent
        assert comphisdist_paper({(0,): 1}, {(9,): 1}) == 1  # far

    def test_chain_counterexample_overshoots_edr(self):
        """R = [0.9, 1.9], S = [1.1, 2.1], eps = 1: EDR is 0, the sound
        HD is 0, but the net-first algorithm reports 1 — the reason this
        library replaces it with the flow form."""
        from repro.core.histogram import comphisdist_paper

        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        r = np.array([[0.9], [1.9]])
        s = np.array([[1.1], [2.1]])
        h_r, h_s = space.histogram(r), space.histogram(s)
        assert edr(r, s, 1.0) == 0.0
        assert histogram_distance(h_r, h_s) == 0
        assert comphisdist_paper(h_r, h_s) == 1  # the overshoot


class TestQuickBound:
    """The staged cheap bound must stay below the exact HD (and EDR)."""

    @settings(max_examples=200, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_quick_below_exact_and_edr(self, a, b, epsilon):
        from repro.core.histogram import histogram_distance_quick

        space = HistogramSpace(origin=[-4.0, -4.0], bin_size=epsilon)
        h_a, h_b = space.histogram(a), space.histogram(b)
        quick = histogram_distance_quick(h_a, h_b)
        exact = histogram_distance(h_a, h_b)
        assert quick <= exact
        assert quick <= edr(a, b, epsilon)

    def test_quick_equals_exact_when_nothing_matches(self):
        from repro.core.histogram import histogram_distance_quick

        first = {(0, 0): 4}
        second = {(9, 9): 2}
        assert histogram_distance_quick(first, second) == 4
        assert histogram_distance(first, second) == 4

    def test_quick_sees_neighbourhood_mass(self):
        from repro.core.histogram import histogram_distance_quick

        first = {(0,): 2}
        second = {(1,): 2}
        assert histogram_distance_quick(first, second) == 0
