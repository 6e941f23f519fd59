"""Tests for repro.sim.parallel."""

import pytest

from repro.config import GridConfig, SimulationConfig
from repro.sim.parallel import parallel_sweep, recommended_workers

TINY = SimulationConfig(duration_s=6.0, grid=GridConfig(cell_size_m=4.0))


class TestRecommendedWorkers:
    def test_bounded_by_tasks(self):
        assert recommended_workers(1) == 1

    def test_at_least_one(self):
        assert recommended_workers(0) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert recommended_workers(10) == 3

    def test_env_override_clamped_to_tasks(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert recommended_workers(2) == 2

    def test_env_override_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            recommended_workers(4)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            recommended_workers(4)

    def test_empty_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert recommended_workers(1) == 1


class TestParallelSweep:
    def points(self):
        return [(TINY.with_(n_sensors=n), {"n_sensors": n}) for n in (6, 9)]

    def test_inline_mode(self):
        recs = parallel_sweep(self.points(), ["fttt"], n_reps=1, seed=0, n_workers=1)
        assert len(recs) == 2
        assert {r.params["n_sensors"] for r in recs} == {6, 9}

    def test_parallel_equals_serial(self):
        serial = parallel_sweep(self.points(), ["fttt"], n_reps=1, seed=3, n_workers=1)
        par = parallel_sweep(self.points(), ["fttt"], n_reps=1, seed=3, n_workers=2)
        assert [r.mean_error for r in serial] == [r.mean_error for r in par]
        assert [r.std_error for r in serial] == [r.std_error for r in par]

    def test_matches_direct_replicate(self):
        from repro.sim.experiments import replicate_mean_error

        recs = parallel_sweep(self.points()[:1], ["fttt"], n_reps=2, seed=7, n_workers=1)
        direct = replicate_mean_error(
            TINY.with_(n_sensors=6), ["fttt"], n_reps=2, seed=7, params={"n_sensors": 6}
        )
        assert recs[0].mean_error == direct[0].mean_error

    def test_multiple_trackers(self):
        recs = parallel_sweep(self.points()[:1], ["fttt", "nearest"], n_reps=1, seed=0, n_workers=1)
        assert {r.tracker for r in recs} == {"fttt", "nearest"}

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            parallel_sweep([], ["fttt"])
