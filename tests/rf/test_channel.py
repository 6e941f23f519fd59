"""Tests for repro.rf.channel — SampleBatch and RssChannel."""

import numpy as np
import pytest

from repro.rf.channel import RssChannel, SampleBatch
from repro.rf.noise import NoNoise
from repro.rf.pathloss import LogDistancePathLoss


def make_channel(nodes, sensing_range=None, noise=None):
    return RssChannel(
        nodes=nodes,
        pathloss=LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0),
        noise=noise or NoNoise(),
        sensing_range_m=sensing_range,
    )


class TestSampleBatch:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="k"):
            SampleBatch(
                rss=np.zeros((3, 2)),
                times=np.zeros(2),
                positions=np.zeros((3, 2)),
            )

    def test_positions_validation(self):
        with pytest.raises(ValueError, match="positions"):
            SampleBatch(rss=np.zeros((2, 2)), times=np.zeros(2), positions=np.zeros((2, 3)))

    def test_responding_mask(self):
        rss = np.array([[1.0, np.nan, 3.0], [1.0, 2.0, np.nan]])
        batch = SampleBatch(rss=rss, times=np.zeros(2), positions=np.zeros((2, 2)))
        assert batch.responding.tolist() == [True, False, False]

    def test_mean_position(self):
        pos = np.array([[0.0, 0.0], [2.0, 4.0]])
        batch = SampleBatch(rss=np.zeros((2, 1)), times=np.zeros(2), positions=pos)
        assert np.allclose(batch.mean_position, [1.0, 2.0])

    def test_k_and_n(self):
        batch = SampleBatch(rss=np.zeros((5, 7)), times=np.zeros(5), positions=np.zeros((5, 2)))
        assert batch.k == 5 and batch.n_sensors == 7


class TestRssChannel:
    def test_distances(self, four_nodes):
        ch = make_channel(four_nodes)
        d = ch.distances(np.array([[30.0, 30.0]]))
        assert d[0, 0] == pytest.approx(0.0)
        assert d[0, 1] == pytest.approx(40.0)

    def test_noiseless_observation_matches_model(self, four_nodes):
        ch = make_channel(four_nodes)
        rng = np.random.default_rng(0)
        batch = ch.observe_static(np.array([50.0, 50.0]), 3, rng)
        d = np.hypot(four_nodes[:, 0] - 50.0, four_nodes[:, 1] - 50.0)
        expected = ch.pathloss.rss_dbm(d)
        assert np.allclose(batch.rss, expected[None, :])

    def test_sensing_range_gates_to_nan(self, four_nodes):
        ch = make_channel(four_nodes, sensing_range=30.0)
        rng = np.random.default_rng(0)
        batch = ch.observe_static(np.array([30.0, 30.0]), 2, rng)
        assert not np.isnan(batch.rss[:, 0]).any()  # co-located node hears
        assert np.isnan(batch.rss[:, 3]).all()  # diagonal node at ~56m silent

    def test_drop_mask_1d(self, four_nodes):
        ch = make_channel(four_nodes)
        rng = np.random.default_rng(0)
        batch = ch.observe(
            np.zeros((2, 2)),
            np.arange(2.0),
            rng,
            drop_mask=np.array([True, False, False, True]),
        )
        assert np.isnan(batch.rss[:, 0]).all()
        assert not np.isnan(batch.rss[:, 1]).any()
        assert np.isnan(batch.rss[:, 3]).all()

    def test_drop_mask_2d(self, four_nodes):
        ch = make_channel(four_nodes)
        rng = np.random.default_rng(0)
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 2] = True
        batch = ch.observe(np.zeros((2, 2)), np.arange(2.0), rng, drop_mask=mask)
        assert np.isnan(batch.rss[0, 2])
        assert not np.isnan(batch.rss[1, 2])

    def test_observe_static_times(self, four_nodes):
        ch = make_channel(four_nodes)
        rng = np.random.default_rng(0)
        batch = ch.observe_static(np.array([10.0, 10.0]), 4, rng)
        assert np.allclose(batch.times, [0.0, 0.1, 0.2, 0.3])

    def test_observe_static_rejects_bad_k(self, four_nodes):
        ch = make_channel(four_nodes)
        with pytest.raises(ValueError, match="k"):
            ch.observe_static(np.zeros(2), 0, np.random.default_rng(0))

    def test_rejects_bad_node_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            RssChannel(nodes=np.zeros((3, 3)))

    def test_rejects_nonpositive_range(self, four_nodes):
        with pytest.raises(ValueError, match="range"):
            make_channel(four_nodes, sensing_range=0.0)

    def test_noise_changes_samples(self, four_nodes):
        from repro.rf.noise import GaussianNoise

        ch = make_channel(four_nodes, noise=GaussianNoise(6.0))
        rng = np.random.default_rng(0)
        batch = ch.observe_static(np.array([50.0, 50.0]), 5, rng)
        # successive samples at the same point must differ (fresh noise)
        assert not np.allclose(batch.rss[0], batch.rss[1])
