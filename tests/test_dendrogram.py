"""Tests for linkage trees and text dendrograms."""

import numpy as np
import pytest

from repro.eval.clustering import complete_linkage
from repro.eval.dendrogram import cut_tree, linkage_tree, render_dendrogram


def block_matrix():
    """Two tight groups {0,1,2} and {3,4} far apart."""
    return np.array(
        [
            [0, 1, 2, 9, 9],
            [1, 0, 1, 9, 9],
            [2, 1, 0, 9, 9],
            [9, 9, 9, 0, 1],
            [9, 9, 9, 1, 0],
        ],
        dtype=float,
    )


class TestLinkageTree:
    def test_merge_count(self):
        merges = linkage_tree(block_matrix())
        assert len(merges) == 4

    def test_heights_are_non_decreasing_for_complete_linkage(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(10, 2))
        matrix = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(axis=2))
        merges = linkage_tree(matrix)
        heights = [m.height for m in merges]
        assert heights == sorted(heights)

    def test_first_merge_is_the_closest_pair(self):
        merges = linkage_tree(block_matrix())
        assert merges[0].height == 1.0

    def test_last_merge_joins_the_two_groups(self):
        merges = linkage_tree(block_matrix())
        assert merges[-1].height == 9.0

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            linkage_tree(np.zeros((2, 3)))

    def test_single_item(self):
        assert linkage_tree(np.zeros((1, 1))) == []


class TestCutTree:
    def test_matches_complete_linkage_partition(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(12, 2))
        matrix = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(axis=2))
        merges = linkage_tree(matrix)
        for cluster_count in (1, 2, 4, 12):
            from_tree = cut_tree(merges, 12, cluster_count)
            direct = complete_linkage(matrix, cluster_count)
            # same partition up to label permutation
            mapping = {}
            for a, b in zip(from_tree, direct):
                mapping.setdefault(a, b)
                assert mapping[a] == b

    def test_two_clusters_on_blocks(self):
        merges = linkage_tree(block_matrix())
        assignment = cut_tree(merges, 5, 2)
        assert assignment[0] == assignment[1] == assignment[2]
        assert assignment[3] == assignment[4]
        assert assignment[0] != assignment[3]

    def test_invalid_cluster_count(self):
        merges = linkage_tree(block_matrix())
        with pytest.raises(ValueError):
            cut_tree(merges, 5, 0)


class TestRendering:
    def test_all_labels_appear(self):
        merges = linkage_tree(block_matrix())
        text = render_dendrogram(merges, labels=list("abcde"))
        for label in "abcde":
            assert f"- {label}" in text

    def test_heights_annotated(self):
        merges = linkage_tree(block_matrix())
        text = render_dendrogram(merges)
        assert "h=9" in text

    def test_structure_groups_blocks_together(self):
        merges = linkage_tree(block_matrix())
        text = render_dendrogram(merges, labels=list("abcde"))
        # d and e merge at depth deeper than the root; their lines are adjacent
        lines = [line.strip() for line in text.splitlines()]
        d_position = lines.index("- d")
        e_position = lines.index("- e")
        assert abs(d_position - e_position) == 1

    def test_single_leaf(self):
        assert render_dendrogram([], labels=["only"]) == "only"

    def test_label_count_mismatch_raises(self):
        merges = linkage_tree(block_matrix())
        with pytest.raises(ValueError):
            render_dendrogram(merges, labels=["a"])
