"""Tests for repro.rf.shadowing — correlated noise models."""

import numpy as np
import pytest

from repro.rf.shadowing import CommonModeNoise, TemporallyCorrelatedNoise


class TestTemporalNoise:
    def test_stationary_variance(self, rng):
        n = TemporallyCorrelatedNoise(sigma_dbm=6.0, rho=0.8)
        samples = np.vstack([n.sample((50, 100), rng) for _ in range(40)])
        assert samples.std() == pytest.approx(6.0, rel=0.05)

    def test_autocorrelation_matches_rho(self, rng):
        rho = 0.9
        n = TemporallyCorrelatedNoise(sigma_dbm=6.0, rho=rho)
        x = n.sample((5000, 20), rng)
        lag1 = np.mean(
            [np.corrcoef(x[:-1, j], x[1:, j])[0, 1] for j in range(20)]
        )
        assert lag1 == pytest.approx(rho, abs=0.05)

    def test_rho_zero_is_iid(self, rng):
        n = TemporallyCorrelatedNoise(sigma_dbm=6.0, rho=0.0)
        x = n.sample((5000, 4), rng)
        lag1 = np.corrcoef(x[:-1, 0], x[1:, 0])[0, 1]
        assert abs(lag1) < 0.05

    def test_state_persists_across_groups(self, rng):
        n = TemporallyCorrelatedNoise(sigma_dbm=6.0, rho=0.99)
        a = n.sample((1, 5), rng)
        b = n.sample((1, 5), rng)
        # with rho ~ 1 the next group starts where the last ended
        assert np.all(np.abs(a - b) < 6.0)

    def test_reset(self, rng):
        n = TemporallyCorrelatedNoise(sigma_dbm=6.0, rho=0.9)
        n.sample((3, 4), rng)
        n.reset()
        assert n._state is None

    def test_requires_2d_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(k, n\)"):
            TemporallyCorrelatedNoise().sample((5,), rng)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporallyCorrelatedNoise(rho=1.0)
        with pytest.raises(ValueError):
            TemporallyCorrelatedNoise(sigma_dbm=-1.0)


class TestCommonModeNoise:
    def test_total_variance_preserved(self, rng):
        n = CommonModeNoise(sigma_dbm=6.0, alpha=0.7)
        x = n.sample((100_000, 3), rng)
        assert x.std() == pytest.approx(6.0, rel=0.03)

    def test_pairwise_difference_sees_reduced_sigma(self, rng):
        n = CommonModeNoise(sigma_dbm=6.0, alpha=0.8)
        x = n.sample((200_000, 2), rng)
        diff = x[:, 0] - x[:, 1]
        expected = np.sqrt(2) * n.effective_pairwise_sigma
        assert diff.std() == pytest.approx(expected, rel=0.03)

    def test_alpha_zero_is_iid(self, rng):
        n = CommonModeNoise(sigma_dbm=6.0, alpha=0.0)
        x = n.sample((100_000, 2), rng)
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_alpha_one_is_fully_common(self, rng):
        n = CommonModeNoise(sigma_dbm=6.0, alpha=1.0)
        x = n.sample((100, 4), rng)
        assert np.allclose(x, x[:, [0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            CommonModeNoise(alpha=1.5)
        with pytest.raises(ValueError):
            CommonModeNoise(sigma_dbm=-1.0)
