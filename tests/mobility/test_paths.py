"""Tests for repro.mobility.paths and repro.mobility.base."""

import numpy as np
import pytest

from repro.mobility.base import MobilityModel, StationaryTarget
from repro.mobility.paths import PiecewiseLinearPath, l_shape_path


class TestStationaryTarget:
    def test_never_moves(self):
        s = StationaryTarget(np.array([3.0, 4.0]))
        pos = s.position(np.array([0.0, 10.0, 100.0]))
        assert np.allclose(pos, [[3, 4]] * 3)

    def test_protocol(self):
        assert isinstance(StationaryTarget(np.zeros(2)), MobilityModel)


class TestPiecewiseLinearPath:
    def test_duration_from_speeds(self):
        p = PiecewiseLinearPath(np.array([[0, 0], [10, 0]]), speeds=2.0)
        assert p.duration_s == pytest.approx(5.0)

    def test_per_segment_speeds(self):
        p = PiecewiseLinearPath(
            np.array([[0, 0], [10, 0], [10, 10]]), speeds=np.array([1.0, 2.0])
        )
        assert p.duration_s == pytest.approx(10.0 + 5.0)

    def test_position_interpolation(self):
        p = PiecewiseLinearPath(np.array([[0, 0], [10, 0]]), speeds=2.0)
        assert np.allclose(p.position(np.array([2.5]))[0], [5.0, 0.0])

    def test_position_clamped(self):
        p = PiecewiseLinearPath(np.array([[0, 0], [10, 0]]), speeds=1.0)
        assert np.allclose(p.position(np.array([-1.0]))[0], [0, 0])
        assert np.allclose(p.position(np.array([99.0]))[0], [10, 0])

    def test_length(self):
        p = PiecewiseLinearPath(np.array([[0, 0], [3, 4], [3, 8]]), speeds=1.0)
        assert p.length_m == pytest.approx(9.0)

    def test_rejects_zero_length_segment(self):
        with pytest.raises(ValueError, match="zero-length"):
            PiecewiseLinearPath(np.array([[0, 0], [0, 0], [1, 1]]), speeds=1.0)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="positive"):
            PiecewiseLinearPath(np.array([[0, 0], [1, 0]]), speeds=0.0)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath(np.array([[0.0, 0.0]]), speeds=1.0)

    def test_protocol(self):
        p = PiecewiseLinearPath(np.array([[0, 0], [1, 0]]), speeds=1.0)
        assert isinstance(p, MobilityModel)


class TestLShapePath:
    def test_starts_bottom_left_ends_top_right(self):
        p = l_shape_path(100.0, rng=0)
        start = p.position(np.array([0.0]))[0]
        end = p.position(np.array([p.duration_s]))[0]
        assert np.allclose(start, [25.0, 25.0])
        assert np.allclose(end, [75.0, 75.0])

    def test_speeds_within_range(self):
        p = l_shape_path(100.0, rng=1)
        assert np.all(p.speeds >= 1.0) and np.all(p.speeds <= 5.0)

    def test_changeable_velocity(self):
        p = l_shape_path(100.0, rng=2)
        assert len(np.unique(p.speeds)) > 1

    def test_path_is_l_shaped(self):
        # every vertex has x == inset or y == field - inset
        p = l_shape_path(100.0, rng=3)
        v = p.vertices
        on_vertical = np.isclose(v[:, 0], 25.0)
        on_horizontal = np.isclose(v[:, 1], 75.0)
        assert np.all(on_vertical | on_horizontal)
