"""Tests for repro.core.tracker — the FTTT facade."""

import numpy as np
import pytest

from repro.core.tracker import FTTTracker, TrackResult
from repro.rf.channel import SampleBatch


def batch_at(channel_nodes, point, k=5, noise=0.0, rng=None, t0=0.0):
    """Noiseless (or mildly noisy) grouping sampling at a fixed point."""
    rng = rng or np.random.default_rng(0)
    d = np.hypot(channel_nodes[:, 0] - point[0], channel_nodes[:, 1] - point[1])
    rss = -40.0 - 40.0 * np.log10(np.maximum(d, 1e-3))
    rss = np.tile(rss, (k, 1))
    if noise:
        rss = rss + rng.normal(0, noise, rss.shape)
    return SampleBatch(
        rss=rss,
        times=t0 + np.arange(k) / 10.0,
        positions=np.tile(np.asarray(point, dtype=float), (k, 1)),
    )


# deadband consistent with the fixture face map's C = 1.5 under beta = 4:
# |delta RSS| <= 10*beta*log10(C) exactly when the distance ratio is inside
# the uncertain band, so a noiseless sampling vector equals the signature.
EPS_FOR_C15 = 40.0 * np.log10(1.5)


class TestLocalize:
    def test_noiseless_localization_lands_in_true_face(self, face_map, four_nodes):
        tracker = FTTTracker(face_map, matcher="exhaustive", comparator_eps=EPS_FOR_C15)
        p = np.array([40.0, 55.0])
        est = tracker.localize_batch(batch_at(four_nodes, p))
        true_fid = face_map.face_of_point(p)
        assert true_fid in est.face_ids

    def test_estimate_error_bounded_by_face_size(self, face_map, four_nodes, rng):
        tracker = FTTTracker(face_map, matcher="exhaustive", comparator_eps=EPS_FOR_C15)
        errors = []
        for _ in range(25):
            p = rng.uniform(10, 90, 2)
            est = tracker.localize_batch(batch_at(four_nodes, p))
            errors.append(np.hypot(*(est.position - p)))
        # noiseless: error is pure intra-face quantization, bounded by field/4
        assert np.mean(errors) < 15.0

    def test_n_reporting_counts_nonsilent(self, face_map, four_nodes):
        tracker = FTTTracker(face_map)
        batch = batch_at(four_nodes, [50.0, 50.0])
        rss = batch.rss.copy()
        rss[:, 2] = np.nan
        est = tracker.localize(rss)
        assert est.n_reporting == 3

    def test_wrong_sensor_count_rejected(self, face_map):
        tracker = FTTTracker(face_map)
        with pytest.raises(ValueError, match="sensors"):
            tracker.localize(np.zeros((3, 7)))

    def test_time_passthrough(self, face_map, four_nodes):
        tracker = FTTTracker(face_map)
        est = tracker.localize_batch(batch_at(four_nodes, [50.0, 50.0], t0=3.25))
        assert est.t == pytest.approx(3.25)


class TestModesAndMatchers:
    def test_invalid_mode(self, face_map):
        with pytest.raises(ValueError, match="mode"):
            FTTTracker(face_map, mode="bogus")

    def test_invalid_matcher(self, face_map):
        with pytest.raises(ValueError, match="matcher"):
            FTTTracker(face_map, matcher="bogus")

    def test_soft_without_attachment_rejected(self, face_map):
        with pytest.raises(ValueError, match="soft"):
            FTTTracker(face_map, soft_signatures=True)

    def test_extended_mode_builds_extended_vectors(self, face_map):
        tracker = FTTTracker(face_map, mode="extended")
        rss = np.array([[10.0, 5.0, 1.0, 0.0]] * 5 + [[5.0, 10.0, 1.0, 0.0]])
        v = tracker.build_vector(rss)
        assert v[0] == pytest.approx(4.0 / 6.0)

    def test_basic_mode_builds_basic_vectors(self, face_map):
        tracker = FTTTracker(face_map, mode="basic")
        rss = np.array([[10.0, 5.0, 1.0, 0.0]] * 5 + [[5.0, 10.0, 1.0, 0.0]])
        assert tracker.build_vector(rss)[0] == 0.0


class TestTrack:
    def test_track_produces_result_per_batch(self, face_map, four_nodes, rng):
        tracker = FTTTracker(face_map)
        points = [rng.uniform(20, 80, 2) for _ in range(8)]
        batches = [batch_at(four_nodes, p, noise=2.0, rng=rng, t0=i * 0.5) for i, p in enumerate(points)]
        result = tracker.track(batches)
        assert len(result) == 8
        assert result.positions.shape == (8, 2)
        assert result.truth.shape == (8, 2)
        assert len(result.errors) == 8

    def test_metrics(self, face_map, four_nodes, rng):
        tracker = FTTTracker(face_map)
        batches = [batch_at(four_nodes, rng.uniform(20, 80, 2), noise=2.0, rng=rng) for _ in range(5)]
        result = tracker.track(batches)
        e = result.errors
        assert result.mean_error == pytest.approx(e.mean())
        assert result.std_error == pytest.approx(e.std())

    def test_empty_result_metrics_are_nan(self):
        r = TrackResult()
        assert np.isnan(r.mean_error)
        assert np.isnan(r.std_error)
        assert r.positions.shape == (0, 2)

    def test_reset_clears_matcher_state(self, face_map, four_nodes):
        tracker = FTTTracker(face_map, matcher="heuristic")
        tracker.localize_batch(batch_at(four_nodes, [50.0, 50.0]))
        assert tracker.matcher.last_face is not None
        tracker.reset()
        assert tracker.matcher.last_face is None
