"""Tests for the baseline trackers (Direct MLE, PM, range MLE, nearest)."""

import numpy as np
import pytest

from repro.baselines.direct_mle import DirectMLETracker
from repro.baselines.nearest import NearestNodeTracker
from repro.baselines.path_matching import PathMatchingTracker
from repro.baselines.range_mle import RangeMLETracker
from repro.rf.channel import SampleBatch
from repro.rf.pathloss import LogDistancePathLoss


def batch_at(nodes, point, k=3, noise=0.0, rng=None, t0=0.0):
    rng = rng or np.random.default_rng(0)
    d = np.hypot(nodes[:, 0] - point[0], nodes[:, 1] - point[1])
    rss = -40.0 - 40.0 * np.log10(np.maximum(d, 1e-3))
    rss = np.tile(rss, (k, 1))
    if noise:
        rss = rss + rng.normal(0, noise, rss.shape)
    return SampleBatch(
        rss=rss,
        times=t0 + np.arange(k) / 10.0,
        positions=np.tile(np.asarray(point, dtype=float), (k, 1)),
    )


class TestDirectMLE:
    def test_noiseless_localization_in_true_face(self, certain_map, four_nodes):
        tracker = DirectMLETracker(certain_map)
        p = np.array([42.0, 61.0])
        est = tracker.localize_batch(batch_at(four_nodes, p))
        assert certain_map.face_of_point(p) in est.face_ids

    def test_reasonable_error_under_noise(self, certain_map, four_nodes, rng):
        tracker = DirectMLETracker(certain_map)
        errors = []
        for _ in range(20):
            p = rng.uniform(20, 80, 2)
            est = tracker.localize_batch(batch_at(four_nodes, p, noise=3.0, rng=rng))
            errors.append(np.hypot(*(est.position - p)))
        assert np.mean(errors) < 25.0

    def test_track_interface(self, certain_map, four_nodes, rng):
        tracker = DirectMLETracker(certain_map)
        batches = [batch_at(four_nodes, rng.uniform(20, 80, 2), t0=i * 0.5) for i in range(5)]
        result = tracker.track(batches)
        assert len(result) == 5

    def test_wrong_sensor_count(self, certain_map):
        tracker = DirectMLETracker(certain_map)
        with pytest.raises(ValueError, match="sensors"):
            tracker.localize(np.zeros((2, 9)))


class TestPathMatching:
    def test_noiseless_track_follows_target(self, certain_map, four_nodes):
        # four nodes divide the certain map into only ~a dozen coarse faces,
        # so the achievable error is face-diameter scale; assert the decoder
        # stays in the right neighbourhood and mostly picks the true face.
        tracker = PathMatchingTracker(certain_map, vmax_mps=5.0)
        points = [np.array([30.0 + 2 * i, 43.0]) for i in range(10)]
        batches = [batch_at(four_nodes, p, t0=i * 0.5) for i, p in enumerate(points)]
        result = tracker.track(batches)
        assert result.mean_error < 35.0
        true_faces = [certain_map.face_of_point(p) for p in points]
        est_faces = [int(e.face_ids[0]) for e in result.estimates]
        assert sum(t == e for t, e in zip(true_faces, est_faces)) >= len(points) // 2

    def test_localize_single_round(self, certain_map, four_nodes):
        tracker = PathMatchingTracker(certain_map)
        est = tracker.localize(batch_at(four_nodes, [55.0, 45.0]).rss)
        assert np.all(np.isfinite(est.position))

    def test_empty_track(self, certain_map):
        tracker = PathMatchingTracker(certain_map)
        assert len(tracker.track([])) == 0

    def test_velocity_constraint_smooths_jumps(self, certain_map, four_nodes, rng):
        """With a strong path prior, a single corrupted round cannot fling
        the estimate across the field."""
        smooth = PathMatchingTracker(certain_map, vmax_mps=2.0)
        points = [np.array([30.0 + i, 50.0]) for i in range(12)]
        batches = [batch_at(four_nodes, p, noise=1.0, rng=rng, t0=i * 0.5) for i, p in enumerate(points)]
        # corrupt the middle round heavily
        bad = batches[6]
        batches[6] = SampleBatch(
            rss=bad.rss[:, ::-1].copy(), times=bad.times, positions=bad.positions
        )
        result = smooth.track(batches)
        jumps = np.hypot(*np.diff(result.positions, axis=0).T)
        assert jumps.max() < 60.0

    def test_validation(self, certain_map):
        with pytest.raises(ValueError):
            PathMatchingTracker(certain_map, vmax_mps=0.0)


class TestRangeMLE:
    def test_noiseless_exact_recovery(self, four_nodes):
        pl = LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)
        tracker = RangeMLETracker(four_nodes, pl, field_size=100.0)
        p = np.array([44.0, 58.0])
        est = tracker.localize_batch(batch_at(four_nodes, p))
        assert np.hypot(*(est.position - p)) < 0.5

    def test_few_sensors_falls_back_to_centroid(self, four_nodes):
        pl = LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)
        tracker = RangeMLETracker(four_nodes, pl)
        rss = np.full((2, 4), np.nan)
        rss[:, 0] = -50.0
        est = tracker.localize(rss)
        assert np.all((est.position >= 0) & (est.position <= 100))

    def test_all_silent(self, four_nodes):
        pl = LogDistancePathLoss()
        tracker = RangeMLETracker(four_nodes, pl)
        est = tracker.localize(np.full((2, 4), np.nan))
        assert np.all(np.isfinite(est.position))

    def test_estimates_clipped_to_field(self, four_nodes, rng):
        pl = LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)
        tracker = RangeMLETracker(four_nodes, pl, field_size=100.0)
        for _ in range(10):
            est = tracker.localize_batch(
                batch_at(four_nodes, rng.uniform(0, 100, 2), noise=10.0, rng=rng)
            )
            assert np.all((est.position >= 0) & (est.position <= 100))

    def test_wrong_sensor_count(self, four_nodes):
        tracker = RangeMLETracker(four_nodes, LogDistancePathLoss())
        with pytest.raises(ValueError, match="sensors"):
            tracker.localize(np.zeros((2, 5)))


class TestNearestNode:
    def test_snaps_to_loudest(self, four_nodes):
        tracker = NearestNodeTracker(four_nodes)
        est = tracker.localize_batch(batch_at(four_nodes, [31.0, 29.0]))
        assert np.allclose(est.position, four_nodes[0])

    def test_all_silent_returns_centroid(self, four_nodes):
        tracker = NearestNodeTracker(four_nodes)
        est = tracker.localize(np.full((2, 4), np.nan))
        assert np.allclose(est.position, four_nodes.mean(axis=0))

    def test_track(self, four_nodes, rng):
        tracker = NearestNodeTracker(four_nodes)
        batches = [batch_at(four_nodes, rng.uniform(20, 80, 2)) for _ in range(3)]
        assert len(tracker.track(batches)) == 3

    def test_wrong_sensor_count(self, four_nodes):
        with pytest.raises(ValueError, match="sensors"):
            NearestNodeTracker(four_nodes).localize(np.zeros((1, 3)))
