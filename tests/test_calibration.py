"""Tests for matching-threshold calibration."""

import numpy as np
import pytest

from repro import Trajectory
from repro.eval.calibration import calibrate_epsilon


def clustered_set(seed=0, classes=4, per_class=5, scale=5.0, jitter=0.05):
    """Labelled set whose classes are jittered copies of base shapes."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for class_index in range(classes):
        base = rng.normal(scale=scale, size=(12, 2))
        for _ in range(per_class):
            trajectories.append(
                Trajectory(
                    base + rng.normal(scale=jitter, size=base.shape),
                    label=f"class-{class_index}",
                )
            )
    return trajectories


class TestContrastMethod:
    def test_returns_candidate_with_best_score(self):
        trajectories = clustered_set()
        result = calibrate_epsilon(trajectories, candidates=[0.01, 0.5, 50.0])
        assert result.epsilon in (0.01, 0.5, 50.0)
        assert result.epsilon == min(result.scores, key=lambda e: (result.scores[e], e))

    def test_prefers_discriminating_threshold(self):
        """jitter 0.05, class gaps ~5: eps 0.5 separates, 0.001 and 500
        are degenerate — the contrast score must pick the middle."""
        trajectories = clustered_set()
        result = calibrate_epsilon(trajectories, candidates=[0.001, 0.5, 500.0])
        assert result.epsilon == 0.5

    def test_default_candidates_bracket_the_heuristic(self):
        trajectories = clustered_set()
        result = calibrate_epsilon(trajectories)
        assert len(result.scores) == 4

    def test_summary_readable(self):
        trajectories = clustered_set()
        result = calibrate_epsilon(trajectories, candidates=[0.5, 1.0])
        assert "calibrated eps" in result.summary()


class TestLabelsMethod:
    def test_picks_zero_error_threshold(self):
        trajectories = clustered_set()
        result = calibrate_epsilon(
            trajectories, candidates=[0.5], method="labels"
        )
        assert result.scores[0.5] == 0.0

    def test_ranks_by_error(self):
        trajectories = clustered_set()
        result = calibrate_epsilon(
            trajectories, candidates=[0.001, 0.5], method="labels"
        )
        assert result.epsilon == 0.5
        assert result.scores[0.5] <= result.scores[0.001]

    def test_requires_labels(self):
        rng = np.random.default_rng(1)
        unlabelled = [Trajectory(rng.normal(size=(5, 2))) for _ in range(5)]
        with pytest.raises(ValueError):
            calibrate_epsilon(unlabelled, candidates=[0.5], method="labels")


class TestValidation:
    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            calibrate_epsilon([])

    def test_non_positive_candidate_raises(self):
        trajectories = clustered_set()
        with pytest.raises(ValueError):
            calibrate_epsilon(trajectories, candidates=[0.0])

    def test_unknown_method_raises(self):
        trajectories = clustered_set()
        with pytest.raises(ValueError):
            calibrate_epsilon(trajectories, candidates=[0.5], method="vibes")

    def test_sampling_is_deterministic(self):
        trajectories = clustered_set(per_class=20)
        first = calibrate_epsilon(trajectories, candidates=[0.5, 1.0], seed=3)
        second = calibrate_epsilon(trajectories, candidates=[0.5, 1.0], seed=3)
        assert first.scores == second.scores
