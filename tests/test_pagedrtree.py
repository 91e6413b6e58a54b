"""Tests for the disk-resident (STR bulk-loaded) R-tree."""

import numpy as np
import pytest

from repro.storage.pagedrtree import PagedRTree


def brute_force(points, lower, upper):
    hits = []
    for index, point in enumerate(points):
        if np.all(point >= lower) and np.all(point <= upper):
            hits.append(index)
    return sorted(hits)


class TestBuildAndSearch:
    @pytest.mark.parametrize("seed", range(4))
    def test_range_queries_match_brute_force(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-10, 10, size=(400, 2))
        tree = PagedRTree.build(
            tmp_path / "t.rtree", points, list(range(400)), page_size=256
        )
        for _ in range(20):
            center = rng.uniform(-10, 10, size=2)
            half = rng.uniform(0.2, 4.0)
            lower, upper = center - half, center + half
            assert sorted(tree.range_search(lower, upper)) == brute_force(
                points, lower, upper
            )
        tree.close()

    def test_match_search_window(self, tmp_path):
        points = np.array([[0.0, 0.0], [0.4, -0.4], [0.6, 0.0], [5.0, 5.0]])
        tree = PagedRTree.build(tmp_path / "t.rtree", points, [10, 11, 12, 13])
        assert sorted(tree.match_search([0.0, 0.0], 0.5)) == [10, 11]
        tree.close()

    def test_one_dimensional_points(self, tmp_path):
        rng = np.random.default_rng(5)
        points = rng.uniform(-5, 5, size=(150, 1))
        tree = PagedRTree.build(
            tmp_path / "t.rtree", points, list(range(150)), page_size=128
        )
        expected = brute_force(points, np.array([-1.0]), np.array([1.0]))
        assert sorted(tree.range_search([-1.0], [1.0])) == expected
        tree.close()

    def test_single_point(self, tmp_path):
        tree = PagedRTree.build(tmp_path / "t.rtree", np.array([[1.0, 2.0]]), [7])
        assert tree.range_search([0.0, 0.0], [3.0, 3.0]) == [7]
        assert tree.range_search([5.0, 5.0], [6.0, 6.0]) == []
        tree.close()

    def test_duplicate_points(self, tmp_path):
        points = np.zeros((50, 2))
        tree = PagedRTree.build(
            tmp_path / "t.rtree", points, list(range(50)), page_size=256
        )
        assert sorted(tree.range_search([0.0, 0.0], [0.0, 0.0])) == list(range(50))
        tree.close()

    def test_build_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PagedRTree.build(tmp_path / "t.rtree", np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            PagedRTree.build(tmp_path / "t.rtree", np.zeros((2, 2)), [1])


class TestPersistence:
    def test_reopen_and_query(self, tmp_path):
        rng = np.random.default_rng(6)
        points = rng.uniform(-5, 5, size=(200, 2))
        PagedRTree.build(
            tmp_path / "t.rtree", points, list(range(200)), page_size=256
        ).close()
        tree = PagedRTree.open(tmp_path / "t.rtree")
        lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        assert sorted(tree.range_search(lower, upper)) == brute_force(
            points, lower, upper
        )
        tree.close()


class TestIoAccounting:
    def test_probes_cost_page_reads(self, tmp_path):
        rng = np.random.default_rng(7)
        points = rng.uniform(-10, 10, size=(2000, 2))
        with PagedRTree.build(
            tmp_path / "t.rtree", points, list(range(2000)),
            page_size=256, pool_pages=4,
        ) as tree:
            before = tree.pool.misses
            tree.match_search(rng.uniform(-10, 10, size=2), 0.3)
            probe_cost = tree.pool.misses - before
        assert probe_cost >= 2  # at least root + one leaf

    def test_warm_pool_reduces_physical_reads(self, tmp_path):
        rng = np.random.default_rng(8)
        points = rng.uniform(-1, 1, size=(500, 2))
        with PagedRTree.build(
            tmp_path / "t.rtree", points, list(range(500)),
            page_size=512, pool_pages=64,
        ) as tree:
            query = np.zeros(2)
            tree.match_search(query, 0.2)
            cold_misses = tree.pool.misses
            tree.match_search(query, 0.2)  # identical probe: all pages cached
            assert tree.pool.misses == cold_misses
            assert tree.pool.hits > 0
