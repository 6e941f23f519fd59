"""Tests for repro.mobility.waypoint — random waypoint model."""

import numpy as np
import pytest

from repro.mobility.waypoint import RandomWaypoint


class TestRandomWaypoint:
    def test_positions_inside_field(self):
        m = RandomWaypoint(field_size=100.0, duration_s=60.0, seed=1)
        t = np.linspace(0, 60, 500)
        pos = m.position(t)
        assert pos.min() >= 0 and pos.max() <= 100

    def test_reproducible(self):
        a = RandomWaypoint(seed=5).position(np.linspace(0, 60, 50))
        b = RandomWaypoint(seed=5).position(np.linspace(0, 60, 50))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomWaypoint(seed=5).position(np.linspace(0, 60, 50))
        b = RandomWaypoint(seed=6).position(np.linspace(0, 60, 50))
        assert not np.allclose(a, b)

    def test_speed_within_range(self):
        m = RandomWaypoint(speed_range=(1.0, 5.0), duration_s=120.0, seed=2)
        t = np.linspace(0.1, 119.0, 2000)
        v = m.speed(t)
        assert v.min() >= 1.0 - 1e-9
        assert v.max() <= 5.0 + 1e-9

    def test_continuous_trajectory(self):
        m = RandomWaypoint(seed=3, duration_s=60.0)
        t = np.linspace(0, 60, 6000)
        pos = m.position(t)
        step = np.hypot(*np.diff(pos, axis=0).T)
        # max speed 5 m/s, dt = 0.01 s -> no step above ~5 cm
        assert step.max() < 0.06

    def test_clamps_beyond_duration(self):
        m = RandomWaypoint(seed=4, duration_s=30.0)
        end = m.position(np.array([1e6]))
        near_end = m.position(np.array([m._times[-1]]))
        assert np.allclose(end, near_end)

    def test_margin_respected(self):
        m = RandomWaypoint(field_size=100.0, margin=20.0, seed=7, duration_s=200.0)
        pos = m.position(np.linspace(0, 200, 1000))
        assert pos.min() >= 20.0 - 1e-9
        assert pos.max() <= 80.0 + 1e-9

    def test_pause_keeps_position(self):
        m = RandomWaypoint(seed=8, pause_s=2.0, duration_s=60.0)
        # find a pause interval: consecutive identical waypoints
        times, pts = m._times, m._points
        pauses = [i for i in range(len(pts) - 1) if np.allclose(pts[i], pts[i + 1])]
        assert pauses, "pause segments should exist"
        i = pauses[0]
        mid = (times[i] + times[i + 1]) / 2
        assert np.allclose(m.position(np.array([mid]))[0], pts[i])

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(speed_range=(0.0, 5.0))
        with pytest.raises(ValueError):
            RandomWaypoint(speed_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypoint(duration_s=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(pause_s=-1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(field_size=100.0, margin=60.0)
