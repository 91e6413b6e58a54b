"""Tests for the storage substrate: page file, buffer pool, trajectory store."""

import numpy as np
import pytest

from repro import HistogramPruner, QgramMergeJoinPruner, Trajectory, TrajectoryDatabase
from repro.core.search import knn_scan
from repro.eval import same_answers
from repro.storage import (
    BufferPool,
    PageFile,
    TrajectoryStore,
    disk_knn_scan,
    disk_knn_search,
)


class TestPageFile:
    def test_allocate_and_round_trip(self, tmp_path):
        with PageFile(tmp_path / "f.pages", page_size=128) as file:
            page = file.allocate()
            file.write(page, b"hello")
            assert file.read(page).startswith(b"hello")
            assert file.read(page).rstrip(b"\x00") == b"hello"

    def test_pages_are_independent(self, tmp_path):
        with PageFile(tmp_path / "f.pages", page_size=128) as file:
            first = file.allocate()
            second = file.allocate()
            file.write(first, b"a" * 128)
            file.write(second, b"b" * 128)
            assert file.read(first) == b"a" * 128
            assert file.read(second) == b"b" * 128

    def test_io_counters(self, tmp_path):
        with PageFile(tmp_path / "f.pages", page_size=128) as file:
            page = file.allocate()
            file.write(page, b"x")
            file.read(page)
            file.read(page)
            assert file.writes == 1
            assert file.reads == 2

    def test_reopen_preserves_pages(self, tmp_path):
        path = tmp_path / "f.pages"
        with PageFile(path, page_size=128) as file:
            page = file.allocate()
            file.write(page, b"persisted")
            file.sync()
        with PageFile(path, page_size=128) as reopened:
            assert reopened.page_count == 1
            assert reopened.read(page).startswith(b"persisted")

    def test_out_of_range_read(self, tmp_path):
        with PageFile(tmp_path / "f.pages", page_size=128) as file:
            with pytest.raises(IndexError):
                file.read(0)

    def test_oversized_write_rejected(self, tmp_path):
        with PageFile(tmp_path / "f.pages", page_size=128) as file:
            page = file.allocate()
            with pytest.raises(ValueError):
                file.write(page, b"z" * 129)

    def test_mismatched_page_size_on_reopen(self, tmp_path):
        path = tmp_path / "f.pages"
        with PageFile(path, page_size=128) as file:
            file.allocate()
            file.sync()
        with pytest.raises(ValueError):
            PageFile(path, page_size=100)

    def test_tiny_page_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PageFile(tmp_path / "f.pages", page_size=16)


class TestBufferPool:
    def make_file(self, tmp_path, pages=8):
        file = PageFile(tmp_path / "pool.pages", page_size=128)
        for index in range(pages):
            page = file.allocate()
            file.write(page, bytes([index]) * 8)
        return file

    def test_hit_after_miss(self, tmp_path):
        with self.make_file(tmp_path) as file:
            pool = BufferPool(file, capacity=4)
            pool.get(0)
            pool.get(0)
            assert pool.misses == 1
            assert pool.hits == 1
            assert pool.hit_rate == 0.5

    def test_lru_eviction_order(self, tmp_path):
        with self.make_file(tmp_path) as file:
            pool = BufferPool(file, capacity=2)
            pool.get(0)
            pool.get(1)
            pool.get(0)  # 0 becomes most recent
            pool.get(2)  # evicts 1
            assert pool.evictions == 1
            assert set(pool.resident_pages()) == {0, 2}

    def test_dirty_write_back_on_eviction(self, tmp_path):
        with self.make_file(tmp_path) as file:
            pool = BufferPool(file, capacity=1)
            pool.put(0, b"dirty!")
            pool.get(1)  # evicts page 0, forcing write-back
            assert file.read(0).startswith(b"dirty!")

    def test_flush_writes_dirty_frames(self, tmp_path):
        with self.make_file(tmp_path) as file:
            pool = BufferPool(file, capacity=4)
            pool.put(3, b"flushed")
            pool.flush()
            assert file.read(3).startswith(b"flushed")

    def test_capacity_validation(self, tmp_path):
        with self.make_file(tmp_path) as file:
            with pytest.raises(ValueError):
                BufferPool(file, capacity=0)


def sample_trajectories(count=25, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Trajectory(
            rng.normal(size=(int(rng.integers(5, 40)), 2)),
            label=f"c{i % 3}",
        )
        for i in range(count)
    ]


class TestTrajectoryStore:
    def test_round_trip(self, tmp_path):
        trajectories = sample_trajectories()
        store = TrajectoryStore.create(
            tmp_path / "t.pages", trajectories, page_size=256
        )
        for index, original in enumerate(trajectories):
            loaded = store.get(index)
            assert np.array_equal(loaded.points, original.points)
            assert loaded.label == original.label
        store.close()

    def test_reopen(self, tmp_path):
        trajectories = sample_trajectories()
        TrajectoryStore.create(tmp_path / "t.pages", trajectories).close()
        store = TrajectoryStore.open(tmp_path / "t.pages")
        assert len(store) == len(trajectories)
        assert np.array_equal(store.get(7).points, trajectories[7].points)
        store.close()

    def test_long_trajectories_span_pages(self, tmp_path):
        rng = np.random.default_rng(1)
        big = Trajectory(rng.normal(size=(500, 2)))  # 8000 bytes of points
        store = TrajectoryStore.create(tmp_path / "t.pages", [big], page_size=256)
        assert store.pages_of(0) > 1
        assert np.array_equal(store.get(0).points, big.points)
        store.close()


class TestDiskSearch:
    def test_disk_scan_matches_memory_scan(self, tmp_path):
        trajectories = sample_trajectories()
        database = TrajectoryDatabase(trajectories, epsilon=0.4)
        store = TrajectoryStore.create(tmp_path / "t.pages", trajectories)
        rng = np.random.default_rng(2)
        query = Trajectory(rng.normal(size=(15, 2)))
        expected, _ = knn_scan(database, query, 4)
        actual, stats = disk_knn_scan(store, query, 4, 0.4)
        assert same_answers(expected, actual)
        assert stats.page_reads > 0
        store.close()

    def test_pruning_saves_physical_reads(self, tmp_path):
        trajectories = sample_trajectories(count=40, seed=3)
        database = TrajectoryDatabase(trajectories, epsilon=0.3)
        store = TrajectoryStore.create(
            tmp_path / "t.pages", trajectories, page_size=256, pool_pages=4
        )
        rng = np.random.default_rng(4)
        query = Trajectory(rng.normal(size=(15, 2)))
        expected, scan_stats = disk_knn_scan(store, query, 3, 0.3)
        fresh = TrajectoryStore.open(tmp_path / "t.pages", pool_pages=4)
        pruners = [
            HistogramPruner(database),
            QgramMergeJoinPruner(database, q=1),
        ]
        actual, pruned_stats = disk_knn_search(fresh, database, query, 3, pruners)
        assert same_answers(expected, actual)
        assert pruned_stats.pages_avoided > 0
        assert pruned_stats.page_reads < scan_stats.page_reads
        store.close()
        fresh.close()

    def test_alignment_check(self, tmp_path):
        trajectories = sample_trajectories(count=5)
        database = TrajectoryDatabase(trajectories[:4], epsilon=0.4)
        store = TrajectoryStore.create(tmp_path / "t.pages", trajectories)
        with pytest.raises(ValueError):
            disk_knn_search(store, database, trajectories[0], 2, [])
        store.close()
