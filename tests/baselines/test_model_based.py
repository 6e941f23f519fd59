"""Tests for the model-based trackers (Kalman filter, particle filter)."""

import numpy as np
import pytest

from repro.baselines.kalman import KalmanTracker
from repro.baselines.particle import ParticleFilterTracker
from repro.baselines.range_mle import RangeMLETracker
from repro.rf.channel import SampleBatch
from repro.rf.pathloss import LogDistancePathLoss


def batch_at(nodes, point, k=3, noise=0.0, rng=None, t0=0.0):
    rng = rng or np.random.default_rng(0)
    d = np.hypot(nodes[:, 0] - point[0], nodes[:, 1] - point[1])
    rss = np.tile(-40.0 - 40.0 * np.log10(np.maximum(d, 1e-3)), (k, 1))
    if noise:
        rss = rss + rng.normal(0, noise, rss.shape)
    return SampleBatch(
        rss=rss,
        times=t0 + np.arange(k) / 10.0,
        positions=np.tile(np.asarray(point, float), (k, 1)),
    )


@pytest.fixture
def pathloss():
    return LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)


class TestKalman:
    def make(self, nodes, pathloss):
        inner = RangeMLETracker(nodes, pathloss, field_size=100.0)
        return KalmanTracker(inner, field_size=100.0)

    def test_first_fix_initializes_state(self, four_nodes, pathloss):
        kf = self.make(four_nodes, pathloss)
        est = kf.localize_batch(batch_at(four_nodes, [45.0, 55.0]))
        assert np.hypot(*(est.position - [45.0, 55.0])) < 2.0
        assert kf.velocity is not None

    def test_smooths_noisy_fixes(self, four_nodes, pathloss, rng):
        """On a straight constant-velocity track, the filter's error is at
        most the raw per-round fixes' error."""
        points = [np.array([30.0 + 2 * i, 50.0]) for i in range(15)]
        batches = [
            batch_at(four_nodes, p, noise=2.0, rng=np.random.default_rng(i), t0=0.5 * i)
            for i, p in enumerate(points)
        ]
        kf = self.make(four_nodes, pathloss)
        res_kf = kf.track(batches)
        raw = RangeMLETracker(four_nodes, pathloss, field_size=100.0).track(batches)
        assert res_kf.errors[5:].mean() <= raw.errors[5:].mean() * 1.1

    def test_velocity_estimated_on_straight_track(self, four_nodes, pathloss):
        points = [np.array([30.0 + 2 * i, 50.0]) for i in range(12)]
        batches = [batch_at(four_nodes, p, t0=0.5 * i) for i, p in enumerate(points)]
        kf = self.make(four_nodes, pathloss)
        kf.track(batches)
        v = kf.velocity
        assert v[0] == pytest.approx(4.0, abs=1.0)  # 2 m per 0.5 s
        assert abs(v[1]) < 1.0

    def test_reset(self, four_nodes, pathloss):
        kf = self.make(four_nodes, pathloss)
        kf.localize_batch(batch_at(four_nodes, [50.0, 50.0]))
        kf.reset()
        assert kf.velocity is None

    def test_estimates_clipped(self, four_nodes, pathloss, rng):
        kf = self.make(four_nodes, pathloss)
        for i in range(5):
            est = kf.localize_batch(
                batch_at(four_nodes, rng.uniform(0, 100, 2), noise=12.0, rng=rng, t0=0.5 * i)
            )
            assert np.all((est.position >= 0) & (est.position <= 100))


class TestParticleFilter:
    def make(self, nodes, pathloss, **kw):
        kw.setdefault("noise_sigma_dbm", 3.0)
        kw.setdefault("sensing_range_m", None)
        return ParticleFilterTracker(nodes, pathloss, field_size=100.0, **kw)

    def test_converges_on_static_target(self, four_nodes, pathloss):
        pf = self.make(four_nodes, pathloss)
        p = np.array([58.0, 44.0])
        errs = []
        for i in range(8):
            est = pf.localize_batch(
                batch_at(four_nodes, p, noise=3.0, rng=np.random.default_rng(i), t0=0.5 * i)
            )
            errs.append(np.hypot(*(est.position - p)))
        assert errs[-1] < 8.0
        assert errs[-1] <= errs[0] + 1.0

    def test_tracks_moving_target(self, four_nodes, pathloss):
        pf = self.make(four_nodes, pathloss)
        points = [np.array([30.0 + 2.5 * i, 45.0]) for i in range(16)]
        batches = [
            batch_at(four_nodes, p, noise=3.0, rng=np.random.default_rng(i), t0=0.5 * i)
            for i, p in enumerate(points)
        ]
        res = pf.track(batches)
        assert res.errors[6:].mean() < 10.0

    def test_reproducible_with_seed(self, four_nodes, pathloss):
        batches = [batch_at(four_nodes, [50.0, 50.0], noise=3.0, t0=0.5 * i) for i in range(4)]
        a = self.make(four_nodes, pathloss).track(batches)
        b = self.make(four_nodes, pathloss).track(batches)
        assert np.allclose(a.positions, b.positions)

    def test_handles_silent_sensors(self, four_nodes, pathloss):
        pf = self.make(four_nodes, pathloss, sensing_range_m=40.0)
        batch = batch_at(four_nodes, [35.0, 35.0])
        rss = batch.rss.copy()
        rss[:, 3] = np.nan
        batch = SampleBatch(rss=rss, times=batch.times, positions=batch.positions)
        est = pf.localize_batch(batch)
        assert np.all(np.isfinite(est.position))

    def test_all_nan_round_survives(self, four_nodes, pathloss):
        pf = self.make(four_nodes, pathloss)
        batch = SampleBatch(
            rss=np.full((2, 4), np.nan), times=np.arange(2.0), positions=np.zeros((2, 2))
        )
        est = pf.localize_batch(batch)
        assert np.all(np.isfinite(est.position))

    def test_validation(self, four_nodes, pathloss):
        with pytest.raises(ValueError):
            ParticleFilterTracker(four_nodes, pathloss, noise_sigma_dbm=0.0)

    def test_scenario_integration(self, fast_config):
        from repro.sim.runner import run_all_trackers
        from repro.sim.scenario import make_scenario

        scenario = make_scenario(fast_config, seed=2)
        results = run_all_trackers(scenario, ["kalman", "particle"], 3, n_rounds=5)
        for res in results.values():
            assert len(res) == 5
            assert np.all(np.isfinite(res.positions))
