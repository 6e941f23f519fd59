"""Tests for repro.network.basestation."""

import numpy as np
import pytest

from repro.network.basestation import BaseStation
from repro.rf.channel import SampleBatch


def make_batch(k=3, n=5, fill=0.0):
    return SampleBatch(
        rss=np.full((k, n), fill),
        times=np.arange(k, dtype=float),
        positions=np.zeros((k, 2)),
    )


class TestBaseStation:
    def test_aggregate_appends_rounds(self, rng):
        bs = BaseStation()
        bs.aggregate(make_batch(), 0.0, rng)
        bs.aggregate(make_batch(), 0.5, rng)
        assert bs.n_rounds == 2
        assert bs.rounds[1].round_index == 1

    def test_no_loss_keeps_all_reports(self, rng):
        bs = BaseStation(packet_loss_p=0.0)
        rnd = bs.aggregate(make_batch(), 0.0, rng)
        assert not rnd.lost_reports.any()
        assert rnd.n_reporting == 5

    def test_full_loss_blanks_everything(self, rng):
        bs = BaseStation(packet_loss_p=1.0)
        rnd = bs.aggregate(make_batch(), 0.0, rng)
        assert rnd.lost_reports.all()
        assert np.isnan(rnd.effective_rss).all()
        assert rnd.n_reporting == 0

    def test_loss_rate_statistical(self, rng):
        bs = BaseStation(packet_loss_p=0.25)
        for r in range(200):
            bs.aggregate(make_batch(n=20), r * 0.5, rng)
        lost = np.stack([rnd.lost_reports for rnd in bs.rounds])
        assert lost.shape == (200, 20)
        assert lost.mean() == pytest.approx(0.25, abs=0.03)

    def test_effective_rss_does_not_mutate_batch(self, rng):
        bs = BaseStation(packet_loss_p=1.0)
        batch = make_batch()
        rnd = bs.aggregate(batch, 0.0, rng)
        _ = rnd.effective_rss
        assert not np.isnan(batch.rss).any()

    def test_reset(self, rng):
        bs = BaseStation()
        bs.aggregate(make_batch(), 0.0, rng)
        bs.reset()
        assert bs.n_rounds == 0

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            BaseStation(packet_loss_p=-0.1)
