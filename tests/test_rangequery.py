"""Tests for range queries under EDR (Theorem 1's original setting)."""

import numpy as np
import pytest

from repro import (
    HistogramPruner,
    NearTrianglePruning,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
)
from repro.core.rangequery import range_scan, range_search
from repro.core.search import knn_scan


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(13)
    trajectories = [
        Trajectory(
            np.cumsum(rng.normal(size=(int(rng.integers(8, 30)), 2)), axis=0)
        ).normalized()
        for _ in range(40)
    ]
    database = TrajectoryDatabase(trajectories, epsilon=0.25)
    query = Trajectory(np.cumsum(rng.normal(size=(20, 2)), axis=0)).normalized()
    return database, query


def result_set(neighbors):
    return sorted((n.index, n.distance) for n in neighbors)


class TestRangeScan:
    def test_all_results_within_radius(self, workload):
        database, query = workload
        results, stats = range_scan(database, query, radius=25.0)
        assert all(n.distance <= 25.0 for n in results)
        assert stats.true_distance_computations == len(database)

    def test_zero_radius_finds_exact_matches_only(self, workload):
        database, query = workload
        member = database.trajectories[4]
        results, _ = range_scan(database, member, radius=0.0)
        assert 4 in {n.index for n in results}
        assert all(n.distance == 0.0 for n in results)

    def test_infinite_radius_returns_everything(self, workload):
        database, query = workload
        results, _ = range_scan(database, query, radius=float("inf"))
        assert len(results) == len(database)

    def test_negative_radius_raises(self, workload):
        database, query = workload
        with pytest.raises(ValueError):
            range_scan(database, query, radius=-1.0)


class TestPrunedRangeSearch:
    @pytest.mark.parametrize("radius", [5.0, 15.0, 25.0])
    def test_matches_scan_for_every_pruner(self, workload, radius):
        database, query = workload
        expected, _ = range_scan(database, query, radius)
        configurations = {
            "histogram": [HistogramPruner(database)],
            "qgram": [QgramMergeJoinPruner(database, q=1)],
            "nti": [NearTrianglePruning(database, max_triangle=10)],
            "all": [
                HistogramPruner(database),
                QgramMergeJoinPruner(database, q=1),
                NearTrianglePruning(database, max_triangle=10),
            ],
        }
        for name, pruners in configurations.items():
            actual, _ = range_search(database, query, radius, pruners)
            assert result_set(actual) == result_set(expected), name

    def test_early_abandon_matches_scan(self, workload):
        database, query = workload
        expected, _ = range_scan(database, query, 15.0)
        actual, _ = range_search(database, query, 15.0, [], early_abandon=True)
        assert result_set(actual) == result_set(expected)

    def test_small_radius_prunes_more(self, workload):
        database, query = workload
        pruners = [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)]
        _, tight = range_search(database, query, 2.0, pruners)
        _, loose = range_search(database, query, 30.0, pruners)
        assert tight.pruning_power >= loose.pruning_power

    def test_stats_cover_database(self, workload):
        database, query = workload
        _, stats = range_search(
            database, query, 10.0, [HistogramPruner(database)]
        )
        pruned = sum(stats.pruned_by.values())
        assert pruned + stats.true_distance_computations == len(database)

    def test_negative_radius_raises(self, workload):
        database, query = workload
        with pytest.raises(ValueError):
            range_search(database, query, -0.5, [])


class TestKernelAccounting:
    """Every refine path attributes its DP cells to a kernel."""

    def test_scan_counts_cells_like_knn_scan(self, workload):
        database, query = workload
        _, stats = range_scan(database, query, 15.0)
        _, knn_stats = knn_scan(database, query, 3)
        assert stats.kernel_cells
        assert stats.kernel_cells == knn_stats.kernel_cells
        assert set(stats.kernel_seconds) == set(stats.kernel_cells)

    def test_scalar_refine_counts_the_batched_cells(self, workload):
        database, query = workload
        pruners = [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)]
        _, scalar = range_search(
            database, query, 15.0, pruners, refine_batch_size=None
        )
        _, batched = range_search(database, query, 15.0, pruners)
        assert scalar.true_distance_computations > 0
        assert sum(scalar.kernel_cells.values()) == sum(
            batched.kernel_cells.values()
        )
        assert set(scalar.kernel_seconds) == set(scalar.kernel_cells)
