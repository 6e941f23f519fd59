"""Tests for repro.geometry.components (union-find and region labelling)."""

import numpy as np
import pytest

from repro.geometry.components import UnionFind, label_equal_regions
from repro.geometry.grid import Grid


class TestUnionFind:
    def test_initially_all_singletons(self):
        uf = UnionFind(5)
        assert np.unique(uf.labels()).size == 5

    def test_union_reduces_components(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert np.unique(uf.labels()).size == 3

    def test_union_idempotent(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        assert not uf.union(1, 0)
        assert np.unique(uf.labels()).size == 2

    def test_transitive_connectivity(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)

    def test_union_many_counts_merges(self):
        uf = UnionFind(6)
        merges = uf.union_many(np.array([0, 1, 0]), np.array([1, 2, 2]))
        assert merges == 2  # third edge is redundant

    def test_labels_contiguous(self):
        uf = UnionFind(6)
        uf.union(0, 5)
        uf.union(1, 2)
        labels = uf.labels()
        assert labels[0] == labels[5]
        assert labels[1] == labels[2]
        assert set(labels.tolist()) == set(range(len(set(labels.tolist()))))

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_mismatched_edges_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            label_equal_regions(np.zeros(4, dtype=int), np.array([0, 1]), np.array([1]))


class TestLabelEqualRegions:
    def test_checkerboard_stays_split(self):
        # 2x2 grid with a checkerboard value pattern: all four cells isolated
        g = Grid.square(2.0, 1.0)
        a, b = g.neighbor_pairs()
        values = np.array([0, 1, 1, 0])
        labels = label_equal_regions(values, a, b)
        assert len(set(labels.tolist())) == 4

    def test_uniform_grid_is_one_region(self):
        g = Grid.square(4.0, 1.0)
        a, b = g.neighbor_pairs()
        labels = label_equal_regions(np.zeros(g.n_cells, dtype=int), a, b)
        assert len(set(labels.tolist())) == 1

    def test_disconnected_equal_values_split(self):
        # 1x5 strip: values 0 0 1 0 0 -> the two 0-runs are separate regions
        g = Grid(5.0, 1.0, 1.0)
        a, b = g.neighbor_pairs()
        values = np.array([0, 0, 1, 0, 0])
        labels = label_equal_regions(values, a, b)
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert labels[2] not in (labels[0], labels[3])

    def test_labels_respect_values(self):
        g = Grid.square(3.0, 1.0)
        a, b = g.neighbor_pairs()
        values = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0])
        labels = label_equal_regions(values, a, b)
        # every label maps to exactly one value
        for lab in set(labels.tolist()):
            vals = set(values[labels == lab].tolist())
            assert len(vals) == 1
