"""Tests for repro.sim.runner."""

import numpy as np
import pytest

from repro.network.basestation import BaseStation
from repro.network.faults import IndependentDropout
from repro.sim.runner import generate_batches, run_all_trackers, run_tracking
from repro.sim.scenario import make_scenario


@pytest.fixture
def scenario(fast_config):
    return make_scenario(fast_config, seed=11)


class TestGenerateBatches:
    def test_round_count_from_config(self, scenario):
        batches = generate_batches(scenario, 1)
        assert len(batches) == scenario.config.n_localizations

    def test_explicit_round_count(self, scenario):
        assert len(generate_batches(scenario, 1, n_rounds=4)) == 4

    def test_rounds_spaced_by_group_duration(self, scenario):
        batches = generate_batches(scenario, 1, n_rounds=3)
        t0s = [b.times[0] for b in batches]
        period = scenario.sampler.group_duration_s
        assert np.allclose(np.diff(t0s), period)

    def test_positions_follow_mobility(self, scenario):
        batches = generate_batches(scenario, 1, n_rounds=3)
        for b in batches:
            assert np.allclose(b.positions, scenario.mobility.position(b.times))

    def test_reproducible_with_seed(self, scenario):
        a = generate_batches(scenario, 7, n_rounds=3)
        b = generate_batches(scenario, 7, n_rounds=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.rss, y.rss, equal_nan=True)

    def test_faults_blank_sensors(self, scenario):
        batches = generate_batches(
            scenario, 1, faults=IndependentDropout(p=1.0), n_rounds=2
        )
        for b in batches:
            assert np.isnan(b.rss).all()

    def test_basestation_loss_applied(self, scenario):
        bs = BaseStation(packet_loss_p=1.0)
        batches = generate_batches(scenario, 1, basestation=bs, n_rounds=2)
        for b in batches:
            assert np.isnan(b.rss).all()
        assert bs.n_rounds == 2

    def test_rejects_zero_rounds(self, scenario):
        with pytest.raises(ValueError):
            generate_batches(scenario, 1, n_rounds=0)


class TestRunTracking:
    def test_returns_result(self, scenario):
        tracker = scenario.make_tracker("fttt")
        res = run_tracking(scenario, tracker, 1)
        assert len(res) == scenario.config.n_localizations
        assert np.isfinite(res.mean_error)

    def test_tracks_the_generated_batches(self, scenario):
        res = run_tracking(scenario, scenario.make_tracker("fttt"), 1)
        ref = scenario.make_tracker("fttt").track(generate_batches(scenario, 1))
        assert np.array_equal(res.positions, ref.positions)


class TestRunAllTrackers:
    def test_shared_batches(self, scenario):
        results = run_all_trackers(scenario, ["fttt", "direct-mle", "nearest"], 1, n_rounds=4)
        assert set(results) == {"fttt", "direct-mle", "nearest"}
        truths = [res.truth for res in results.values()]
        for t in truths[1:]:
            assert np.array_equal(truths[0], t)  # identical ground truth

    def test_results_have_common_length(self, scenario):
        results = run_all_trackers(scenario, ["fttt", "pm"], 2, n_rounds=4)
        assert all(len(r) == 4 for r in results.values())
