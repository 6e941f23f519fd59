"""Tests for repro.analysis.statistics."""

import numpy as np
import pytest

from repro.analysis.statistics import bootstrap_mean_ci, paired_comparison


class TestBootstrapCI:
    def test_contains_mean(self, rng):
        x = rng.normal(10.0, 2.0, 50)
        mean, lo, hi = bootstrap_mean_ci(x, rng=0)
        assert lo <= mean <= hi
        assert mean == pytest.approx(x.mean())

    def test_width_shrinks_with_n(self, rng):
        small = rng.normal(10, 2, 10)
        large = rng.normal(10, 2, 1000)
        _, lo_s, hi_s = bootstrap_mean_ci(small, rng=0)
        _, lo_l, hi_l = bootstrap_mean_ci(large, rng=0)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_coverage_roughly_nominal(self):
        rng = np.random.default_rng(0)
        hits = 0
        for trial in range(200):
            x = rng.normal(5.0, 1.0, 20)
            _, lo, hi = bootstrap_mean_ci(x, rng=trial)
            hits += lo <= 5.0 <= hi
        assert 0.85 < hits / 200 < 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci(np.array([1.0]))


class TestPairedComparison:
    def test_detects_clear_difference(self, rng):
        a = rng.normal(4.0, 0.5, 20)
        b = a + 2.0 + rng.normal(0, 0.2, 20)
        cmp = paired_comparison(a, b, rng=0)
        assert cmp.mean_diff > 0 and cmp.p_value < 0.05
        assert cmp.mean_diff == pytest.approx(2.0, abs=0.3)
        assert cmp.win_rate_a == 1.0
        assert cmp.ci_lo > 0

    def test_no_difference_not_significant(self, rng):
        a = rng.normal(5.0, 1.0, 15)
        b = a + rng.normal(0, 0.01, 15)
        cmp = paired_comparison(a, b, rng=0)
        assert cmp.p_value >= 0.05 or abs(cmp.mean_diff) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_comparison(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            paired_comparison(np.zeros(1), np.zeros(1))

    def test_fttt_vs_direct_mle_significant(self, fast_config):
        """The headline comparison passes a paired significance test."""
        from repro.sim.runner import run_all_trackers
        from repro.sim.scenario import make_scenario

        fttt, mle = [], []
        for seed in range(6):
            scenario = make_scenario(fast_config.with_(duration_s=12.0), seed=seed)
            results = run_all_trackers(scenario, ["fttt", "direct-mle"], 50 + seed)
            fttt.append(results["fttt"].mean_error)
            mle.append(results["direct-mle"].mean_error)
        cmp = paired_comparison(np.array(fttt), np.array(mle), rng=0)
        assert cmp.mean_diff > 0  # FTTT lower error on average
        assert cmp.win_rate_a >= 0.5
