"""Tests for EDR alignments and sub-trajectory search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import edr
from repro.core.alignment import edr_alignment, subtrajectory_edr


def trajectory_strategy(max_length=10, ndim=2, min_size=0):
    point = st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False) for _ in range(ndim)])
    return st.lists(point, min_size=min_size, max_size=max_length).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, ndim)
    )


class TestAlignment:
    def test_identical_trajectories_all_match(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(8, 2))
        distance, operations = edr_alignment(t, t, 0.1)
        assert distance == 0.0
        assert all(op.kind == "match" for op in operations)
        assert len(operations) == 8

    def test_script_cost_equals_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(1, 10)), 2))
            b = rng.normal(size=(int(rng.integers(1, 10)), 2))
            distance, operations = edr_alignment(a, b, 0.5)
            assert sum(op.cost for op in operations) == distance
            assert distance == edr(a, b, 0.5)

    def test_script_indices_are_monotone_and_complete(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(7, 2))
        b = rng.normal(size=(9, 2))
        _, operations = edr_alignment(a, b, 0.5)
        first_indices = [op.first_index for op in operations if op.first_index is not None]
        second_indices = [op.second_index for op in operations if op.second_index is not None]
        assert first_indices == list(range(7))
        assert second_indices == list(range(9))

    def test_matched_pairs_actually_match(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(8, 2))
        _, operations = edr_alignment(a, b, 0.8)
        for op in operations:
            if op.kind == "match":
                assert np.all(np.abs(a[op.first_index] - b[op.second_index]) <= 0.8)

    def test_pure_insertion_script(self):
        distance, operations = edr_alignment(
            np.empty((0, 2)), np.zeros((3, 2)), 0.5
        )
        assert distance == 3.0
        assert [op.kind for op in operations] == ["insert"] * 3

    def test_pure_deletion_script(self):
        distance, operations = edr_alignment(
            np.zeros((2, 2)), np.empty((0, 2)), 0.5
        )
        assert distance == 2.0
        assert [op.kind for op in operations] == ["delete"] * 2

    def test_noise_spike_is_a_single_operation(self):
        q = np.array([[1.0], [2.0], [3.0], [4.0]])
        s = np.array([[1.0], [100.0], [2.0], [3.0], [4.0]])
        distance, operations = edr_alignment(q, s, 1.0)
        assert distance == 1.0
        non_match = [op for op in operations if op.kind != "match"]
        assert len(non_match) == 1
        assert non_match[0].kind == "insert"
        assert non_match[0].second_index == 1  # the 100.0 outlier

    def test_negative_epsilon_raises(self):
        with pytest.raises(ValueError):
            edr_alignment(np.zeros((1, 2)), np.zeros((1, 2)), -0.1)

    @settings(max_examples=80, deadline=None)
    @given(trajectory_strategy(), trajectory_strategy(), st.floats(0.05, 1.5))
    def test_alignment_distance_always_equals_edr(self, a, b, epsilon):
        distance, _ = edr_alignment(a, b, epsilon)
        assert distance == edr(a, b, epsilon)


class TestSubtrajectorySearch:
    def test_exact_occurrence_found(self):
        rng = np.random.default_rng(4)
        text = rng.normal(size=(50, 2)) * 10
        pattern = text[20:28]
        distance, (start, end) = subtrajectory_edr(pattern, text, 0.1)
        assert distance == 0.0
        assert start == 20
        assert end == 28

    def test_noisy_occurrence_costs_its_noise(self):
        rng = np.random.default_rng(5)
        text = rng.normal(size=(40, 2)) * 10
        pattern = text[10:18].copy()
        pattern[3] = pattern[3] + 500.0  # one outlier inside the pattern
        distance, (start, end) = subtrajectory_edr(pattern, text, 0.1)
        assert distance == 1.0
        assert start >= 9 and end <= 19

    def test_empty_pattern(self):
        assert subtrajectory_edr(np.empty((0, 2)), np.zeros((5, 2)), 0.5) == (
            0.0,
            (0, 0),
        )

    def test_empty_text(self):
        distance, window = subtrajectory_edr(np.zeros((3, 2)), np.empty((0, 2)), 0.5)
        assert distance == 3.0
        assert window == (0, 0)

    def test_never_worse_than_global_edr(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pattern = rng.normal(size=(int(rng.integers(1, 8)), 2))
            text = rng.normal(size=(int(rng.integers(1, 15)), 2))
            windowed, _ = subtrajectory_edr(pattern, text, 0.5)
            assert windowed <= edr(pattern, text, 0.5)

    def test_window_distance_is_exact(self):
        """The reported window's plain EDR equals the reported distance
        ... or better: the window is where the optimum is achieved."""
        rng = np.random.default_rng(7)
        for _ in range(15):
            pattern = rng.normal(size=(5, 2))
            text = rng.normal(size=(12, 2))
            distance, (start, end) = subtrajectory_edr(pattern, text, 0.7)
            assert edr(pattern, text[start:end], 0.7) == distance

    def test_bounded_by_pattern_length(self):
        rng = np.random.default_rng(8)
        pattern = rng.normal(size=(6, 2))
        text = rng.normal(size=(30, 2)) + 100.0
        distance, _ = subtrajectory_edr(pattern, text, 0.5)
        assert distance <= 6.0
