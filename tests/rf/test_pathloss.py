"""Tests for repro.rf.pathloss (Eq. 1)."""

import numpy as np
import pytest

from repro.rf.pathloss import LogDistancePathLoss


class TestRss:
    def test_reference_distance_power(self):
        pl = LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)
        assert pl.rss_dbm(np.array([1.0]))[0] == pytest.approx(-40.0)

    def test_decade_drop_is_10_beta(self):
        pl = LogDistancePathLoss(exponent=3.0, p0_dbm=-40.0)
        r1 = pl.rss_dbm(np.array([1.0]))[0]
        r10 = pl.rss_dbm(np.array([10.0]))[0]
        assert r1 - r10 == pytest.approx(30.0)

    def test_monotone_decreasing(self):
        pl = LogDistancePathLoss()
        d = np.linspace(0.5, 100.0, 50)
        rss = pl.rss_dbm(d)
        assert np.all(np.diff(rss) < 0)

    def test_distance_clamped_at_zero(self):
        pl = LogDistancePathLoss(min_distance=1e-3)
        assert np.isfinite(pl.rss_dbm(np.array([0.0]))[0])

    def test_scalar_and_array_agree(self):
        pl = LogDistancePathLoss()
        assert pl.rss_dbm(7.0) == pytest.approx(pl.rss_dbm(np.array([7.0]))[0])


class TestInverse:
    def test_roundtrip(self):
        pl = LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)
        d = np.array([1.0, 5.0, 20.0, 80.0])
        assert np.allclose(pl.distance_from_rss(pl.rss_dbm(d)), d)

    def test_inverse_monotone(self):
        pl = LogDistancePathLoss()
        rss = np.array([-40.0, -60.0, -80.0])
        d = pl.distance_from_rss(rss)
        assert np.all(np.diff(d) > 0)


class TestValidation:
    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)

    def test_rejects_nonpositive_d0(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(d0=0.0)

    def test_rejects_nonpositive_min_distance(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(min_distance=0.0)
