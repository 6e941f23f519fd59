"""Tests for repro.geometry.primitives."""

import numpy as np
import pytest

from repro.geometry.primitives import (
    Circle,
    enumerate_pairs,
    pair_index,
    pairwise_distances,
    point_in_circle,
    polyline_length,
)


class TestCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            Circle(0.0, 0.0, -1.0)

    def test_center_property(self):
        c = Circle(3.0, 4.0, 1.0)
        assert np.allclose(c.center, [3.0, 4.0])

    def test_contains_inside_and_outside(self):
        c = Circle(0.0, 0.0, 5.0)
        pts = np.array([[0, 0], [3, 4], [4, 4], [10, 0]], dtype=float)
        assert point_in_circle(pts, c).tolist() == [True, True, False, False]

    def test_contains_boundary_strictness(self):
        c = Circle(0.0, 0.0, 5.0)
        boundary = np.array([[5.0, 0.0]])
        assert point_in_circle(boundary, c)[0]
        assert not point_in_circle(boundary, c, strict=True)[0]

    def test_circumference_points_lie_on_circle(self):
        c = Circle(2.0, -1.0, 3.0)
        pts = c.circumference_points(64)
        r = np.hypot(pts[:, 0] - 2.0, pts[:, 1] + 1.0)
        assert np.allclose(r, 3.0)

    def test_circumference_point_count(self):
        assert len(Circle(0, 0, 1).circumference_points(17)) == 17

    def test_zero_radius_allowed(self):
        c = Circle(1.0, 1.0, 0.0)
        assert point_in_circle(np.array([[1.0, 1.0]]), c)[0]


class TestPairwiseDistances:
    def test_matches_manual_computation(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        nodes = np.array([[0.0, 0.0], [6.0, 8.0]])
        d = pairwise_distances(pts, nodes)
        assert d.shape == (2, 2)
        assert np.allclose(d, [[0.0, 10.0], [5.0, 5.0]])

    def test_single_point_broadcast(self):
        d = pairwise_distances(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]))
        assert d.shape == (1, 1)
        assert d[0, 0] == 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="coordinate"):
            pairwise_distances(np.zeros((3, 3)), np.zeros((2, 2)))

    def test_symmetry_under_swap(self, rng):
        a = rng.uniform(0, 10, (5, 2))
        b = rng.uniform(0, 10, (7, 2))
        assert np.allclose(pairwise_distances(a, b), pairwise_distances(b, a).T)


class TestEnumeratePairs:
    def test_canonical_order_n4(self):
        i, j = enumerate_pairs(4)
        got = list(zip(i.tolist(), j.tolist()))
        assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_pair_count(self):
        for n in (2, 3, 10, 25):
            i, j = enumerate_pairs(n)
            assert len(i) == n * (n - 1) // 2

    def test_i_strictly_less_than_j(self):
        i, j = enumerate_pairs(9)
        assert np.all(i < j)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least two"):
            enumerate_pairs(1)

    def test_pair_index_consistency(self):
        n = 7
        i_idx, j_idx = enumerate_pairs(n)
        for p, (i, j) in enumerate(zip(i_idx.tolist(), j_idx.tolist())):
            assert pair_index(i, j, n) == p

    def test_pair_index_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pair_index(3, 3, 5)
        with pytest.raises(ValueError):
            pair_index(4, 2, 5)


class TestPolyline:
    def test_length_of_right_angle(self):
        v = np.array([[0, 0], [3, 0], [3, 4]], dtype=float)
        assert polyline_length(v) == pytest.approx(7.0)

    def test_length_single_vertex_is_zero(self):
        assert polyline_length(np.array([[1.0, 2.0]])) == 0.0

    def test_length_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="vertices"):
            polyline_length(np.zeros(4))
