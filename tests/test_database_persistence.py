"""Tests for TrajectoryDatabase save/load round trips."""

import numpy as np
import pytest

from repro import (
    HistogramPruner,
    NearTrianglePruning,
    QgramMergeJoinPruner,
    Trajectory,
    TrajectoryDatabase,
    knn_scan,
    knn_search,
)
from repro.eval import same_answers


@pytest.fixture()
def built_database():
    rng = np.random.default_rng(0)
    trajectories = [
        Trajectory(
            rng.normal(size=(int(rng.integers(5, 15)), 2)),
            label=f"class-{i % 3}",
        )
        for i in range(12)
    ]
    database = TrajectoryDatabase(trajectories, epsilon=0.4)
    database.sorted_qgram_means(1)
    database.sorted_qgram_means(2)
    database.sorted_qgram_means_1d(1, axis=0)
    database.histograms()
    database.histograms(delta=2.0)
    database.histograms(axis=1)
    database.reference_columns(4)
    database.reference_columns(3, policy="short")
    return database


class TestRoundTrip:
    def test_trajectories_survive(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        loaded = TrajectoryDatabase.load(path)
        assert len(loaded) == len(built_database)
        assert loaded.epsilon == built_database.epsilon
        for a, b in zip(built_database.trajectories, loaded.trajectories):
            assert np.array_equal(a.points, b.points)
            assert a.label == b.label

    def test_artifacts_survive(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        loaded = TrajectoryDatabase.load(path)
        assert set(loaded._sorted_means_2d) == {1, 2}
        assert (1, 0) in loaded._sorted_means_1d
        assert set(loaded._histograms) == {(1.0, None), (2.0, None), (1.0, 1)}
        assert (4, "first") in loaded._reference_columns
        assert (3, "short") in loaded._reference_columns

    def test_artifact_contents_identical(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        loaded = TrajectoryDatabase.load(path)
        for q in (1, 2):
            for a, b in zip(
                built_database.sorted_qgram_means(q), loaded.sorted_qgram_means(q)
            ):
                assert np.array_equal(a, b)
        original_space, original_hists = built_database.histograms()
        loaded_space, loaded_hists = loaded.histograms()
        assert np.array_equal(original_space.origin, loaded_space.origin)
        assert original_space.bin_size == loaded_space.bin_size
        assert original_hists == loaded_hists
        original_refs = built_database.reference_columns(4)
        loaded_refs = loaded.reference_columns(4)
        for key in original_refs:
            assert np.array_equal(original_refs[key], loaded_refs[key])

    def test_saved_archive_is_byte_identical_after_a_round_trip(
        self, built_database, tmp_path
    ):
        # Histograms are saved as arrays, so sharing bin key objects
        # in memory cannot change what a save writes.
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        built_database.save(first)
        TrajectoryDatabase.load(first).save(second)
        with np.load(first) as a, np.load(second) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].dtype == b[name].dtype
                assert a[name].tobytes() == b[name].tobytes(), name

    def test_loaded_histograms_share_bin_keys(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        _, histograms = TrajectoryDatabase.load(path).histograms()
        seen = {}
        for histogram in histograms:
            for key in histogram:
                assert seen.setdefault(key, key) is key

    def test_loaded_database_searches_identically(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        loaded = TrajectoryDatabase.load(path)
        rng = np.random.default_rng(1)
        query = Trajectory(rng.normal(size=(8, 2)))
        expected, _ = knn_scan(built_database, query, 3)
        pruners = [
            HistogramPruner(loaded),
            QgramMergeJoinPruner(loaded, q=1),
            NearTrianglePruning(loaded, max_triangle=4),
        ]
        actual, _ = knn_search(loaded, query, 3, pruners)
        assert same_answers(expected, actual)

    def test_load_warm_equals_build_plus_warm(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        loaded = TrajectoryDatabase.load(path, warm=True)
        # warm=True must eagerly rebuild the derived search-time arrays
        # for every *persisted* artifact family — same cache keys, same
        # contents as building them lazily on the original database.
        assert set(loaded._flat_means_2d) == {1, 2}
        assert set(loaded._flat_means_1d) == {(1, 0)}
        assert set(loaded._histogram_arrays) == {
            (1.0, None),
            (2.0, None),
            (1.0, 1),
        }
        for q in (1, 2):
            expected = built_database.flat_qgram_means(q)
            for a, b in zip(expected, loaded._flat_means_2d[q]):
                assert np.array_equal(np.asarray(a), np.asarray(b))
        for delta, axis in loaded._histogram_arrays:
            expected = built_database.histogram_arrays(delta=delta, axis=axis)
            got = loaded._histogram_arrays[(delta, axis)]
            assert np.array_equal(expected.totals, got.totals)

    def test_load_warm_searches_identically(self, built_database, tmp_path):
        path = tmp_path / "db.npz"
        built_database.save(path)
        loaded = TrajectoryDatabase.load(path, warm=True)
        rng = np.random.default_rng(5)
        query = Trajectory(rng.normal(size=(8, 2)))
        expected, _ = knn_search(
            built_database,
            query,
            3,
            [
                HistogramPruner(built_database),
                QgramMergeJoinPruner(built_database, q=1),
            ],
        )
        actual, _ = knn_search(
            loaded,
            query,
            3,
            [HistogramPruner(loaded), QgramMergeJoinPruner(loaded, q=1)],
        )
        assert [(n.index, n.distance) for n in actual] == [
            (n.index, n.distance) for n in expected
        ]

    def test_unbuilt_database_round_trips(self, tmp_path):
        rng = np.random.default_rng(2)
        database = TrajectoryDatabase(
            [Trajectory(rng.normal(size=(4, 2))) for _ in range(3)], 0.2
        )
        path = tmp_path / "plain.npz"
        database.save(path)
        loaded = TrajectoryDatabase.load(path)
        assert len(loaded) == 3
        assert not loaded._sorted_means_2d
