"""Tests for repro.sim.experiments (kept small: 2 reps, short runs)."""

import numpy as np
import pytest

import repro.obs as obs
from repro.config import GridConfig, SimulationConfig
from repro.geometry.cache import configure_face_map_cache
from repro.sim.experiments import (
    replicate_mean_error,
    sweep_basic_vs_extended,
    sweep_n_sensors,
    sweep_resolution,
    sweep_sampling_times,
)
from repro.sim.scenario import replication_scenarios


@pytest.fixture
def tiny():
    return SimulationConfig(n_sensors=6, duration_s=6.0, grid=GridConfig(cell_size_m=4.0))


class TestReplicate:
    def test_records_per_tracker(self, tiny):
        recs = replicate_mean_error(tiny, ["fttt", "nearest"], n_reps=2, seed=0)
        assert {r.tracker for r in recs} == {"fttt", "nearest"}
        for r in recs:
            assert r.n_reps == 2
            assert len(r.per_rep_means) == 2
            assert np.isfinite(r.mean_error)
            assert r.std_error >= 0

    def test_reproducible(self, tiny):
        a = replicate_mean_error(tiny, ["fttt"], n_reps=2, seed=5)
        b = replicate_mean_error(tiny, ["fttt"], n_reps=2, seed=5)
        assert a[0].mean_error == b[0].mean_error

    def test_different_seeds_differ(self, tiny):
        a = replicate_mean_error(tiny, ["fttt"], n_reps=2, seed=5)
        b = replicate_mean_error(tiny, ["fttt"], n_reps=2, seed=6)
        assert a[0].mean_error != b[0].mean_error

    def test_params_attached(self, tiny):
        recs = replicate_mean_error(tiny, ["fttt"], n_reps=1, seed=0, params={"x": 3})
        assert recs[0].params == {"x": 3}
        assert recs[0].as_dict()["x"] == 3

    def test_rejects_zero_reps(self, tiny):
        with pytest.raises(ValueError):
            replicate_mean_error(tiny, ["fttt"], n_reps=0)


class TestReplicationProtocol:
    def test_replicate_runs_on_the_listed_worlds(self, tiny, monkeypatch):
        """Once the maps of ``replication_scenarios`` are built,
        ``replicate_mean_error`` with the same seed builds none: it visits
        exactly those worlds."""
        monkeypatch.delenv("REPRO_FACE_CACHE_DIR", raising=False)
        configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
        try:
            for scenario in replication_scenarios(tiny, n_reps=3, seed=11):
                scenario.face_map
            with obs.observe() as reg:
                replicate_mean_error(tiny, ["fttt"], n_reps=3, seed=11)
            snap = reg.snapshot()
        finally:
            configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
        assert snap.get("geometry.cache.misses", {"value": 0})["value"] == 0
        assert snap["geometry.cache.hits"]["value"] == 3


class TestSweeps:
    def test_sweep_n_sensors_structure(self, tiny):
        recs = sweep_n_sensors([5, 8], ["fttt"], base_config=tiny, n_reps=1, seed=0)
        assert len(recs) == 2
        assert [r.params["n_sensors"] for r in recs] == [5, 8]

    def test_sweep_resolution_structure(self, tiny):
        recs = sweep_resolution([1.0, 2.0], [6], base_config=tiny, n_reps=1, seed=0)
        assert len(recs) == 2
        assert all(r.tracker == "fttt" for r in recs)
        assert {r.params["resolution_dbm"] for r in recs} == {1.0, 2.0}

    def test_sweep_sampling_times_structure(self, tiny):
        recs = sweep_sampling_times([3, 5], [6], base_config=tiny, n_reps=1, seed=0)
        assert {r.params["sampling_times"] for r in recs} == {3, 5}

    def test_sweep_basic_vs_extended_structure(self, tiny):
        recs = sweep_basic_vs_extended([6], base_config=tiny, n_reps=1, seed=0)
        assert {r.tracker for r in recs} == {"fttt", "fttt-extended"}
