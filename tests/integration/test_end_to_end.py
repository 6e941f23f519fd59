"""End-to-end integration tests: full pipeline, all trackers, with faults."""

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro.network.basestation import BaseStation
from repro.network.faults import CompositeFaults, CrashFailures, IndependentDropout
from repro.sim.runner import generate_batches, run_all_trackers, run_tracking
from repro.sim.scenario import TRACKER_NAMES, make_scenario


@pytest.fixture(scope="module")
def world():
    cfg = SimulationConfig(n_sensors=10, duration_s=15.0, grid=GridConfig(cell_size_m=3.0))
    return make_scenario(cfg, seed=100)


class TestFullPipeline:
    def test_every_tracker_completes(self, world):
        results = run_all_trackers(world, list(TRACKER_NAMES), 101)
        for name, res in results.items():
            assert len(res) == world.config.n_localizations, name
            assert np.isfinite(res.mean_error), name
            assert np.all(np.isfinite(res.positions)), name

    def test_estimates_inside_field(self, world):
        results = run_all_trackers(world, ["fttt", "fttt-extended", "pm"], 102)
        for res in results.values():
            assert res.positions.min() >= 0
            assert res.positions.max() <= world.config.field_size_m

    def test_fttt_beats_nearest_node(self, world):
        results = run_all_trackers(world, ["fttt", "nearest"], 103)
        assert results["fttt"].mean_error < results["nearest"].mean_error


class TestFaultInjection:
    def test_fttt_survives_heavy_dropout(self, world):
        faults = IndependentDropout(p=0.4)
        tracker = world.make_tracker("fttt")
        res = run_tracking(world, tracker, 104, faults=faults)
        assert np.isfinite(res.mean_error)
        assert res.mean_error < world.config.field_size_m / 2

    def test_fttt_survives_crashes_plus_packet_loss(self, world):
        faults = CompositeFaults(
            models=(CrashFailures(crash_fraction=0.3, horizon_rounds=20), IndependentDropout(p=0.1))
        )
        bs = BaseStation(packet_loss_p=0.05)
        tracker = world.make_tracker("fttt")
        res = run_tracking(world, tracker, 105, faults=faults, basestation=bs)
        assert np.isfinite(res.mean_error)

    def test_graceful_degradation(self, world):
        """More dropout means worse — but not catastrophic — accuracy.

        Random dropout poisons the Eq. 6 fill (a crashed *near* sensor is
        assumed far), so degradation is super-linear; the guarantee is that
        tracking never collapses to field-scale error.
        """
        errors = {}
        for p in (0.0, 0.5):
            tracker = world.make_tracker("fttt")
            res = run_tracking(
                world, tracker, 106, faults=IndependentDropout(p=p)
            )
            errors[p] = res.mean_error
        assert errors[0.0] < errors[0.5]
        assert errors[0.5] < world.config.field_size_m / 3

    def test_all_sensors_dead_still_returns_positions(self, world):
        tracker = world.make_tracker("fttt")
        res = run_tracking(world, tracker, 107, faults=IndependentDropout(p=1.0))
        assert len(res) == world.config.n_localizations
        assert np.all(np.isfinite(res.positions))


class TestDeterminism:
    def test_same_seed_same_everything(self, world):
        a = run_tracking(world, world.make_tracker("fttt"), 200)
        b = run_tracking(world, world.make_tracker("fttt"), 200)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.truth, b.truth)

    def test_different_noise_seed_same_truth(self, world):
        a = generate_batches(world, 201, n_rounds=5)
        b = generate_batches(world, 202, n_rounds=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.positions, y.positions)
            assert not np.array_equal(x.rss, y.rss)
