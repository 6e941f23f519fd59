"""Tests for the weighted-centroid and PkNN baselines."""

import numpy as np
import pytest

from repro.baselines.pknn import PkNNTracker
from repro.baselines.weighted_centroid import WeightedCentroidTracker
from repro.network.deployment import grid_deployment
from repro.rf.channel import SampleBatch


# a 4 x 4 grid: more sensors than PkNN's four nearest neighbours
GRID16 = grid_deployment(16, 100.0)


def batch_at(nodes, point, k=3, noise=0.0, rng=None, beta=4.0):
    rng = rng or np.random.default_rng(0)
    d = np.hypot(nodes[:, 0] - point[0], nodes[:, 1] - point[1])
    rss = np.tile(-40.0 - 10.0 * beta * np.log10(np.maximum(d, 1e-3)), (k, 1))
    if noise:
        rss = rss + rng.normal(0, noise, rss.shape)
    return SampleBatch(
        rss=rss, times=np.arange(k, dtype=float), positions=np.tile(np.asarray(point, float), (k, 1))
    )


class TestWeightedCentroid:
    def test_pulls_toward_target(self, four_nodes):
        tracker = WeightedCentroidTracker(four_nodes)
        p = np.array([35.0, 35.0])
        est = tracker.localize_batch(batch_at(four_nodes, p))
        # estimate is between the plain centroid (50,50) and the target
        plain = four_nodes.mean(axis=0)
        assert np.hypot(*(est.position - p)) < np.hypot(*(plain - p))

    def test_larger_exponent_approaches_nearest(self, four_nodes):
        """A steeper path-loss exponent widens the power ratios the weights
        are built from, pulling the estimate to the loudest sensor."""
        p = np.array([32.0, 31.0])
        tracker = WeightedCentroidTracker(four_nodes)
        e_soft = tracker.localize_batch(batch_at(four_nodes, p, beta=2.0))
        e_hard = tracker.localize_batch(batch_at(four_nodes, p, beta=32.0))
        d_soft = np.hypot(*(e_soft.position - four_nodes[0]))
        d_hard = np.hypot(*(e_hard.position - four_nodes[0]))
        assert d_hard < d_soft

    def test_all_silent(self, four_nodes):
        tracker = WeightedCentroidTracker(four_nodes)
        est = tracker.localize(np.full((2, 4), np.nan))
        assert np.allclose(est.position, four_nodes.mean(axis=0))

    def test_track(self, four_nodes, rng):
        tracker = WeightedCentroidTracker(four_nodes)
        batches = [batch_at(four_nodes, rng.uniform(30, 70, 2)) for _ in range(4)]
        assert len(tracker.track(batches)) == 4

    def test_validation(self, four_nodes):
        with pytest.raises(ValueError, match="sensors"):
            WeightedCentroidTracker(four_nodes).localize(np.zeros((1, 7)))


class TestPkNN:
    def test_membership_probabilities_sum(self, four_nodes):
        tracker = PkNNTracker(GRID16)
        batch = batch_at(GRID16, [40.0, 40.0], k=5, noise=3.0)
        probs = tracker.membership_probabilities(batch.rss)
        # per sample exactly k = 4 votes are cast
        assert probs.sum() == pytest.approx(4.0)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_near_target_sensors_get_high_probability(self, four_nodes):
        tracker = PkNNTracker(GRID16)
        p = GRID16[5] + 2.0
        batch = batch_at(GRID16, p, k=5)
        probs = tracker.membership_probabilities(batch.rss)
        assert probs[5] == 1.0  # the sensor next to the target is always among the 4 loudest
        far = np.hypot(*(GRID16 - p).T) > 40.0
        assert np.all(probs[far] == 0.0)

    def test_localization_quality(self, four_nodes, rng):
        tracker = PkNNTracker(GRID16)
        errs = []
        for _ in range(15):
            p = rng.uniform(30, 70, 2)
            est = tracker.localize_batch(batch_at(GRID16, p, k=5, noise=3.0, rng=rng))
            errs.append(np.hypot(*(est.position - p)))
        assert np.mean(errs) < 25.0

    def test_all_silent_returns_centroid(self, four_nodes):
        tracker = PkNNTracker(four_nodes)
        est = tracker.localize(np.full((2, 4), np.nan))
        assert np.allclose(est.position, four_nodes.mean(axis=0))

    def test_k_clamped_to_node_count(self, four_nodes):
        # below the node count: k == n would make every heard sensor a member
        assert PkNNTracker(four_nodes[:3]).k_neighbors == 2
        assert PkNNTracker(four_nodes).k_neighbors == 3
        assert PkNNTracker(GRID16).k_neighbors == 4

    def test_four_sensor_estimate_moves_with_target(self, four_nodes):
        tracker = PkNNTracker(four_nodes)
        plain = four_nodes.mean(axis=0)
        estimates = []
        for corner in four_nodes:
            p = plain + 0.6 * (corner - plain)
            est = tracker.localize_batch(batch_at(four_nodes, p)).position
            assert np.hypot(*(est - p)) < np.hypot(*(plain - p))
            estimates.append(est)
        assert len({tuple(e) for e in estimates}) == 4

    def test_track(self, four_nodes, rng):
        tracker = PkNNTracker(four_nodes)
        batches = [batch_at(four_nodes, rng.uniform(30, 70, 2)) for _ in range(3)]
        assert len(tracker.track(batches)) == 3

    def test_validation(self, four_nodes):
        with pytest.raises(ValueError, match="sensors"):
            PkNNTracker(four_nodes).localize(np.zeros((1, 9)))
