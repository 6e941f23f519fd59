"""Tests for repro.sim.scenario."""

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro.sim.scenario import TRACKER_NAMES, make_scenario, replications


@pytest.fixture
def cfg():
    return SimulationConfig(n_sensors=6, duration_s=10.0, grid=GridConfig(cell_size_m=4.0))


class TestMakeScenario:
    def test_default_scenario(self, cfg):
        s = make_scenario(cfg, seed=1)
        assert s.n_sensors == 6
        assert s.nodes.shape == (6, 2)
        assert s.uncertainty_c > 1.0

    def test_reproducible(self, cfg):
        a = make_scenario(cfg, seed=9)
        b = make_scenario(cfg, seed=9)
        assert np.array_equal(a.nodes, b.nodes)
        t = np.linspace(0, 10, 20)
        assert np.array_equal(a.mobility.position(t), b.mobility.position(t))

    def test_deployments(self, cfg):
        for dep in ("random", "grid", "cross"):
            s = make_scenario(cfg, deployment=dep, seed=2)
            assert s.nodes.shape[0] >= 5

    def test_unknown_deployment(self, cfg):
        with pytest.raises(ValueError, match="deployment"):
            make_scenario(cfg, deployment="ring")

    def test_explicit_nodes_override(self, cfg, four_nodes):
        s = make_scenario(cfg, nodes=four_nodes)
        assert np.array_equal(s.nodes, four_nodes)

    def test_c_modes(self, cfg):
        cal = make_scenario(cfg, seed=1, c_mode="calibrated")
        pap = make_scenario(cfg, seed=1, c_mode="paper")
        assert cal.uncertainty_c > pap.uncertainty_c  # k-sample band is wider
        with pytest.raises(ValueError, match="c_mode"):
            make_scenario(cfg, seed=1, c_mode="bogus")

    def test_face_map_cached(self, cfg):
        s = make_scenario(cfg, seed=3)
        assert s.face_map is s.face_map
        assert s.certain_map is s.certain_map

    def test_face_maps_differ(self, cfg):
        s = make_scenario(cfg, seed=3)
        assert s.face_map.c > 1.0
        assert s.certain_map.c == 1.0


class TestMakeTracker:
    def test_all_names_construct(self, cfg):
        s = make_scenario(cfg, seed=4)
        for name in TRACKER_NAMES:
            tracker = s.make_tracker(name)
            assert hasattr(tracker, "track")
            assert hasattr(tracker, "reset")

    def test_unknown_name(self, cfg):
        s = make_scenario(cfg, seed=4)
        with pytest.raises(ValueError, match="unknown tracker"):
            s.make_tracker("grid-of-oracles")

    def test_fttt_gets_resolution_deadband(self, cfg):
        s = make_scenario(cfg, seed=4)
        tracker = s.make_tracker("fttt")
        assert tracker.comparator_eps == cfg.resolution_dbm

    def test_extended_gets_soft_signatures(self, cfg):
        s = make_scenario(cfg, seed=4)
        tracker = s.make_tracker("fttt-extended")
        assert tracker.matcher.soft is s.soft_signatures
        assert s.soft_signatures.shape == s.face_map.signatures.shape
        assert s.make_tracker("fttt-extended").matcher.soft is tracker.matcher.soft

    def test_pm_inherits_vmax(self, cfg):
        s = make_scenario(cfg, seed=4)
        assert s.make_tracker("pm").vmax_mps == cfg.target_speed_max_mps


class TestReplications:
    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_rejects_no_replications_at_the_call(self, cfg, n_reps):
        # raised before iteration, so no caller can average over nothing
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            replications(cfg, n_reps=n_reps, seed=0)

    def test_yields_one_world_per_replication(self, cfg):
        assert len(list(replications(cfg, n_reps=2, seed=0))) == 2
