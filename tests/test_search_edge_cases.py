"""Edge-case tests for the search engines."""

import numpy as np

from repro import (
    HistogramPruner,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    knn_qgram_index,
    knn_scan,
    knn_search,
    knn_sorted_scan,
)
from repro.eval import same_answers


def make_database(count=10, seed=0, min_length=1, max_length=8, epsilon=0.5):
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(rng.normal(size=(int(rng.integers(min_length, max_length + 1)), 2)))
        for _ in range(count)
    ]
    return TrajectoryDatabase(trajectories, epsilon)


class TestDegenerateSizes:
    def test_single_trajectory_database(self):
        database = make_database(count=1)
        query = Trajectory([[0.0, 0.0]])
        neighbors, _ = knn_scan(database, query, 1)
        assert len(neighbors) == 1

    def test_k_larger_than_database(self):
        database = make_database(count=4)
        query = Trajectory([[0.0, 0.0]])
        neighbors, _ = knn_scan(database, query, 10)
        assert len(neighbors) == 4  # every trajectory is an answer

    def test_single_point_trajectories(self):
        database = make_database(count=8, min_length=1, max_length=1)
        query = Trajectory([[0.0, 0.0]])
        expected, _ = knn_scan(database, query, 3)
        actual, _ = knn_search(
            database, query, 3,
            [HistogramPruner(database), QgramMergeJoinPruner(database, q=1)],
        )
        assert same_answers(expected, actual)

    def test_query_much_longer_than_database(self):
        database = make_database(count=6, min_length=2, max_length=4)
        rng = np.random.default_rng(3)
        query = Trajectory(rng.normal(size=(50, 2)))
        expected, _ = knn_scan(database, query, 2)
        actual, _ = knn_search(database, query, 2, [HistogramPruner(database)])
        assert same_answers(expected, actual)

    def test_qgram_size_exceeding_some_trajectories(self):
        """Q-grams of size 5 don't exist for shorter trajectories: their
        common count is zero, which must still be handled soundly."""
        database = make_database(count=10, min_length=2, max_length=12, seed=4)
        rng = np.random.default_rng(5)
        query = Trajectory(rng.normal(size=(8, 2)))
        expected, _ = knn_scan(database, query, 3)
        actual, _ = knn_search(
            database, query, 3, [QgramMergeJoinPruner(database, q=5)]
        )
        assert same_answers(expected, actual)


class TestEpsilonExtremes:
    def test_zero_epsilon(self):
        database = make_database(epsilon=0.0)
        query = database.trajectories[2]
        neighbors, _ = knn_scan(database, query, 1)
        assert neighbors[0].index == 2
        assert neighbors[0].distance == 0.0

    def test_zero_epsilon_with_qgram_pruner(self):
        database = make_database(epsilon=0.0, seed=7)
        query = database.trajectories[0]
        expected, _ = knn_scan(database, query, 3)
        actual, _ = knn_search(
            database, query, 3, [QgramMergeJoinPruner(database, q=1)]
        )
        assert same_answers(expected, actual)

    def test_huge_epsilon_collapses_distances(self):
        database = make_database(epsilon=1000.0, seed=8)
        rng = np.random.default_rng(9)
        query = Trajectory(rng.normal(size=(5, 2)))
        neighbors, _ = knn_scan(database, query, len(database))
        for neighbor in neighbors:
            # Everything matches, so EDR collapses to the length gap.
            expected = abs(len(database.trajectories[neighbor.index]) - 5)
            assert neighbor.distance == expected


class TestDuplicatesAndTies:
    def test_duplicate_trajectories_all_reported(self):
        rng = np.random.default_rng(10)
        base = Trajectory(rng.normal(size=(6, 2)))
        database = TrajectoryDatabase([base, base, base], epsilon=0.5)
        neighbors, _ = knn_scan(database, base, 3)
        assert [n.distance for n in neighbors] == [0.0, 0.0, 0.0]

    def test_ties_do_not_break_pruned_engines(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(6, 2))
        trajectories = [Trajectory(base) for _ in range(5)] + [
            Trajectory(rng.normal(size=(6, 2))) for _ in range(5)
        ]
        database = TrajectoryDatabase(trajectories, epsilon=0.25)
        query = Trajectory(base)
        expected, _ = knn_scan(database, query, 5)
        for engine in (
            lambda: knn_search(database, query, 5, [HistogramPruner(database)]),
            lambda: knn_sorted_scan(database, query, 5, HistogramPruner(database)),
            lambda: knn_qgram_index(database, query, 5),
        ):
            actual, _ = engine()
            assert same_answers(expected, actual)


class TestStatsConsistency:
    def test_sorted_scan_accounts_for_break(self):
        database = make_database(count=20, seed=12)
        rng = np.random.default_rng(13)
        query = Trajectory(rng.normal(size=(6, 2)))
        _, stats = knn_sorted_scan(database, query, 2, HistogramPruner(database))
        pruned = sum(stats.pruned_by.values())
        assert pruned + stats.true_distance_computations == len(database)

    def test_qgram_index_accounts_for_break(self):
        database = make_database(count=20, seed=14)
        rng = np.random.default_rng(15)
        query = Trajectory(rng.normal(size=(6, 2)))
        _, stats = knn_qgram_index(database, query, 2)
        pruned = sum(stats.pruned_by.values())
        assert pruned + stats.true_distance_computations == len(database)
