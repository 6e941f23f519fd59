"""Tests for repro.geometry.bisector (certain-world classification)."""

import numpy as np
import pytest

from repro.geometry import primitives
from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.bisector import certain_signatures


class TestCertainSignatures:
    def test_sides_and_boundary(self):
        nodes = np.array([[0.0, 0.0], [10.0, 0.0]])
        pts = np.array([[2.0, 1.0], [8.0, -1.0], [5.0, 7.0]])
        assert certain_signatures(pts, nodes)[:, 0].tolist() == [1, -1, 0]

    def test_antisymmetric_in_nodes(self, rng):
        nodes = np.array([[1.0, 2.0], [7.0, -3.0]])
        pts = rng.uniform(-10, 10, (50, 2))
        assert np.array_equal(certain_signatures(pts, nodes), -certain_signatures(pts, nodes[::-1]))

    def test_equals_apollonius_in_c_to_one_limit(self, four_nodes, rng):
        pts = rng.uniform(0, 100, (100, 2))
        certain = certain_signatures(pts, four_nodes)
        limit = classify_points_pairwise(pts, four_nodes, 1.0)
        assert np.array_equal(certain, limit)

    def test_no_zeros_off_bisectors(self, four_nodes):
        pts = np.array([[13.7, 21.9], [88.1, 3.3]])
        sig = certain_signatures(pts, four_nodes)
        assert np.all(sig != 0)

    def test_encodes_total_order(self, four_nodes):
        # signature must be consistent with the distance ranking
        p = np.array([[40.0, 35.0]])
        sig = certain_signatures(p, four_nodes)[0]
        d = np.hypot(four_nodes[:, 0] - 40.0, four_nodes[:, 1] - 35.0)
        idx = 0
        n = len(four_nodes)
        for i in range(n):
            for j in range(i + 1, n):
                expected = np.sign(d[j] - d[i])
                assert sig[idx] == expected
                idx += 1

    def test_equidistant_is_zero_where_c_one_band_gives_minus_one(self):
        nodes = np.array([[0.0, 0.0], [10.0, 0.0]])
        pt = np.array([[5.0, 3.0]])
        assert certain_signatures(pt, nodes)[0, 0] == 0
        assert classify_points_pairwise(pt, nodes, 1.0)[0, 0] == -1

    def test_coincident_nodes(self):
        nodes = np.array([[2.0, 2.0], [2.0, 2.0], [8.0, 2.0]])
        pts = np.array([[0.0, 2.0], [2.0, 2.0], [9.0, 2.0]])
        # d = (2, 2, 8), (0, 0, 6), (7, 7, 1): the coincident pair is always 0
        expected = [[0, 1, 1], [0, 1, 1], [0, -1, -1]]
        assert certain_signatures(pts, nodes).tolist() == expected

    def test_two_nodes_and_a_partial_last_block(self, monkeypatch):
        monkeypatch.setattr(primitives, "CELL_BLOCK", 4)
        nodes = np.array([[0.0, 0.0], [10.0, 0.0]])
        xs = np.arange(11.0)  # 11 = 4 + 4 + 3; x = 5 is on the bisector
        sig = certain_signatures(np.column_stack([xs, np.ones(11)]), nodes)
        assert sig[:, 0].tolist() == [1] * 5 + [0] + [-1] * 5

    @pytest.mark.parametrize("block", [1, 1000])
    def test_chunking_invariant(self, four_nodes, rng, monkeypatch, block):
        pts = rng.uniform(0, 100, (50, 2))
        expected = certain_signatures(pts, four_nodes)
        monkeypatch.setattr(primitives, "CELL_BLOCK", block)
        assert np.array_equal(certain_signatures(pts, four_nodes), expected)
