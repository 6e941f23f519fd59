"""Tests for repro.mobility.gauss_markov."""

import numpy as np
import pytest

from repro.mobility.base import MobilityModel
from repro.mobility.gauss_markov import GaussMarkov


class TestGaussMarkov:
    def test_stays_in_field(self):
        m = GaussMarkov(field_size=100.0, duration_s=120.0, seed=1)
        pos = m.position(np.linspace(0, 120, 2000))
        assert pos.min() >= 0 and pos.max() <= 100

    def test_reproducible(self):
        t = np.linspace(0, 30, 100)
        a = GaussMarkov(seed=3, duration_s=30.0).position(t)
        b = GaussMarkov(seed=3, duration_s=30.0).position(t)
        assert np.array_equal(a, b)

    def test_continuous(self):
        m = GaussMarkov(seed=4, duration_s=30.0, mean_speed=3.0)
        t = np.linspace(0, 30, 3000)
        step = np.hypot(*np.diff(m.position(t), axis=0).T)
        assert step.max() < 0.3  # bounded step at 10 ms sampling

    def test_mean_speed_tracked(self):
        m = GaussMarkov(seed=5, duration_s=300.0, mean_speed=3.0, speed_sigma=0.3)
        v = m.speed(np.linspace(1, 299, 2000))
        assert v.mean() == pytest.approx(3.0, rel=0.25)

    def test_smoother_than_low_alpha(self):
        """High alpha = momentum: heading changes slowly."""

        def mean_turn(alpha):
            m = GaussMarkov(seed=6, duration_s=60.0, alpha=alpha, heading_sigma=0.6)
            t = np.arange(0, 60, 0.5)
            pos = m.position(t)
            vel = np.diff(pos, axis=0)
            headings = np.arctan2(vel[:, 1], vel[:, 0])
            dh = np.abs(np.angle(np.exp(1j * np.diff(headings))))
            return dh.mean()

        assert mean_turn(0.95) < mean_turn(0.2)

    def test_protocol(self):
        assert isinstance(GaussMarkov(seed=0), MobilityModel)

    def test_clamps_beyond_duration(self):
        m = GaussMarkov(seed=7, duration_s=10.0)
        a = m.position(np.array([10.0]))
        b = m.position(np.array([1e5]))
        assert np.allclose(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussMarkov(alpha=1.0)
        with pytest.raises(ValueError):
            GaussMarkov(mean_speed=0.0)
        with pytest.raises(ValueError):
            GaussMarkov(duration_s=0.0)
        with pytest.raises(ValueError):
            GaussMarkov(margin=60.0)

    def test_usable_in_scenario(self, fast_config):
        from repro.sim.runner import run_tracking
        from repro.sim.scenario import make_scenario

        mob = GaussMarkov(field_size=100.0, duration_s=10.0, seed=8)
        scenario = make_scenario(fast_config.with_(duration_s=4.0), seed=9, mobility=mob)
        tracker = scenario.make_tracker("fttt")
        res = run_tracking(scenario, tracker, 10)  # 8 rounds of the 4 s config
        assert len(res) == 8
        assert np.isfinite(res.mean_error)
