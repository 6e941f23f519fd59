"""Tests for repro.core.trajectory — smoothing and smoothness metrics."""

import numpy as np
import pytest

from repro.core.trajectory import (
    exponential_smoothing,
    median_filter,
    moving_average,
    smooth_result,
    smoothness_metrics,
)
from repro.core.tracker import TrackEstimate, TrackResult


def make_result(est_points, true_points=None):
    res = TrackResult()
    if true_points is None:
        true_points = est_points
    for i, (e, t) in enumerate(zip(est_points, true_points)):
        res.append(
            TrackEstimate(
                t=float(i) * 0.5,
                position=np.asarray(e, dtype=float),
                face_ids=np.array([0]),
                sq_distance=1.0,
                n_reporting=4,
                visited_faces=1,
            ),
            np.asarray(t, dtype=float),
        )
    return res


class TestFilters:
    def test_moving_average_constant_series(self):
        pos = np.tile([5.0, 5.0], (6, 1))
        assert np.allclose(moving_average(pos, 3), pos)

    def test_moving_average_same_length(self):
        pos = np.random.default_rng(0).uniform(0, 10, (9, 2))
        assert moving_average(pos, 5).shape == pos.shape

    def test_moving_average_reduces_noise(self, rng):
        line = np.column_stack([np.arange(50.0), np.zeros(50)])
        noisy = line + rng.normal(0, 2.0, line.shape)
        smooth = moving_average(noisy, 5)
        assert np.abs(smooth - line).mean() < np.abs(noisy - line).mean()

    def test_median_filter_kills_single_outlier(self):
        pos = np.column_stack([np.arange(7.0), np.zeros(7)])
        pos[3] = [3.0, 50.0]  # spike
        cleaned = median_filter(pos, 3)
        assert cleaned[3, 1] == 0.0

    def test_exponential_is_causal(self):
        pos = np.zeros((5, 2))
        pos[2:] = 10.0
        out = exponential_smoothing(pos, alpha=0.5)
        assert np.all(out[:2] == 0.0)  # future steps don't leak backward
        assert out[2, 0] == pytest.approx(5.0)

    def test_exponential_alpha_one_identity(self, rng):
        pos = rng.uniform(0, 10, (6, 2))
        assert np.allclose(exponential_smoothing(pos, 1.0), pos)

    def test_window_one_identity(self, rng):
        pos = rng.uniform(0, 10, (6, 2))
        assert np.allclose(moving_average(pos, 1), pos)
        assert np.allclose(median_filter(pos, 1), pos)

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros((3, 2)), 0)
        with pytest.raises(ValueError):
            median_filter(np.zeros((3, 2)), -1)
        with pytest.raises(ValueError):
            exponential_smoothing(np.zeros((3, 2)), 0.0)


class TestSmoothResult:
    def test_preserves_truth_and_length(self, rng):
        res = make_result(rng.uniform(0, 100, (8, 2)))
        out = smooth_result(res, method="mean", window=3)
        assert len(out) == len(res)
        assert np.allclose(out.truth, res.truth)

    def test_methods(self, rng):
        res = make_result(rng.uniform(0, 100, (8, 2)))
        for method in ("mean", "median", "exponential"):
            out = smooth_result(res, method=method)
            assert len(out) == 8
        with pytest.raises(ValueError, match="method"):
            smooth_result(res, method="kalman")

    def test_smoothing_zigzag_reduces_error(self, rng):
        truth = np.column_stack([np.linspace(0, 50, 20), np.full(20, 50.0)])
        zigzag = truth + np.where(np.arange(20)[:, None] % 2 == 0, 4.0, -4.0)
        res = make_result(zigzag, truth)
        out = smooth_result(res, method="mean", window=3)
        assert out.mean_error < res.mean_error


class TestSmoothnessMetrics:
    def test_straight_track_is_smooth(self):
        pts = np.column_stack([np.arange(10.0), np.zeros(10)])
        m = smoothness_metrics(make_result(pts))
        assert m.mean_turn_rad == pytest.approx(0.0)
        assert m.reversal_rate == 0.0
        assert m.path_inflation == pytest.approx(1.0)

    def test_zigzag_inflates_path(self):
        truth = np.column_stack([np.arange(10.0), np.zeros(10)])
        zig = truth.copy()
        zig[:, 1] = np.where(np.arange(10) % 2 == 0, 3.0, -3.0)
        m = smoothness_metrics(make_result(zig, truth))
        assert m.path_inflation > 2.0
        assert m.mean_turn_rad > 0.5

    def test_reversals_detected(self):
        # back-and-forth: every step reverses
        pts = np.array([[0.0, 0], [10, 0], [0, 0], [10, 0], [0, 0]])
        truth = np.column_stack([np.linspace(0, 4, 5), np.zeros(5)])
        m = smoothness_metrics(make_result(pts, truth))
        assert m.reversal_rate == 1.0

    def test_needs_three_rounds(self):
        with pytest.raises(ValueError):
            smoothness_metrics(make_result(np.zeros((2, 2))))

    def test_smoothing_reduces_path_inflation_end_to_end(self, fast_config):
        """Post-hoc smoothing deterministically calms a real FTTT trace."""
        from repro.sim.runner import run_tracking
        from repro.sim.scenario import make_scenario

        scenario = make_scenario(fast_config.with_(duration_s=15.0), seed=0)
        tracker = scenario.make_tracker("fttt")
        res = run_tracking(scenario, tracker, 100)
        smoothed = smooth_result(res, method="mean", window=5)
        assert (
            smoothness_metrics(smoothed).path_inflation
            <= smoothness_metrics(res).path_inflation
        )
