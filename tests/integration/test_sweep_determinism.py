"""Sweep determinism and environment isolation.

Three contracts, all load-bearing for reproducibility claims:

* ``parallel_sweep`` emits identical records whatever the pool size —
  ``REPRO_WORKERS=1`` (inline) and ``REPRO_WORKERS=4`` must agree on
  every float;
* a sweep leaves ``REPRO_FACE_CACHE_DIR`` and the global cache
  configuration as it found them, even when it raises, and a disk store
  changes no record;
* an ``obs_dir`` sweep likewise restores the observability gate
  (``obs.enabled()``) and the active tracer.
"""

from __future__ import annotations

import os

import pytest

import repro.obs as obs
from repro.config import GridConfig, SimulationConfig
from repro.geometry.cache import configure_face_map_cache, default_face_map_cache
from repro.network.faults import IndependentDropout
from repro.sim.parallel import parallel_sweep, recommended_workers

TINY = SimulationConfig(duration_s=6.0, grid=GridConfig(cell_size_m=4.0))

# spawns real worker pools; skippable in the quick loop via -m "not slow"
pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_WORKERS", "REPRO_FACE_CACHE_DIR"):
        monkeypatch.delenv(var, raising=False)
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    obs.set_enabled(None)
    obs.set_tracer(None)
    yield
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    obs.set_enabled(None)
    obs.set_tracer(None)


def _points():
    return [(TINY.with_(n_sensors=n), {"n_sensors": n}) for n in (6, 8, 9, 10)]


def _run(**kwargs):
    return parallel_sweep(
        _points(),
        ["fttt", "nearest"],
        n_reps=2,
        seed=7,
        faults=IndependentDropout(p=0.2),
        **kwargs,
    )


def _assert_records_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.tracker == y.tracker
        assert x.params == y.params
        assert x.mean_error == y.mean_error
        assert x.std_error == y.std_error
        assert x.per_rep_means == y.per_rep_means


class TestWorkerCountInvariance:
    def test_repro_workers_env_1_vs_4_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert recommended_workers(4) == 1
        serial = _run(n_workers=None)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert recommended_workers(4) == 4
        pooled = _run(n_workers=None)
        _assert_records_equal(serial, pooled)

    def test_explicit_worker_counts_identical(self):
        _assert_records_equal(_run(n_workers=1), _run(n_workers=3))

    def test_worker_invariance_holds_with_obs_enabled(self, tmp_path):
        serial = _run(n_workers=1, obs_dir=tmp_path / "a")
        pooled = _run(n_workers=4, obs_dir=tmp_path / "b")
        _assert_records_equal(serial, pooled)


class TestCacheDirIsolation:
    def test_env_and_cache_config_restored(self, tmp_path):
        cache = configure_face_map_cache(disk_dir=tmp_path / "facemaps")
        _run(n_workers=1)
        assert "REPRO_FACE_CACHE_DIR" not in os.environ
        assert default_face_map_cache() is cache
        assert cache.disk_dir == tmp_path / "facemaps"

    def test_preexisting_env_value_restored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FACE_CACHE_DIR", "/somewhere/else")
        _run(n_workers=1)
        assert os.environ["REPRO_FACE_CACHE_DIR"] == "/somewhere/else"

    def test_restored_even_when_sweep_raises(self, tmp_path):
        # unknown tracker name fails inside the sweep
        with pytest.raises(Exception):
            parallel_sweep(_points()[:1], ["no-such-tracker"], n_workers=1)
        assert "REPRO_FACE_CACHE_DIR" not in os.environ
        assert default_face_map_cache().disk_dir is None

    def test_two_tmp_path_sweeps_do_not_share_state(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        configure_face_map_cache(disk_dir=a_dir)
        a = _run(n_workers=1)
        configure_face_map_cache(disk_dir=b_dir)
        b = _run(n_workers=1)
        _assert_records_equal(a, b)
        # each sweep populated its own isolated store
        assert list(a_dir.glob("facemap-*.npz"))
        assert list(b_dir.glob("facemap-*.npz"))

    def test_records_identical_with_and_without_cache_dir(self, tmp_path):
        plain = _run(n_workers=1)
        configure_face_map_cache(disk_dir=tmp_path / "c")
        _assert_records_equal(plain, _run(n_workers=1))


class TestObsDirIsolation:
    def test_obs_env_and_tracer_restored(self, tmp_path):
        _run(n_workers=1, obs_dir=tmp_path / "obs")
        assert not obs.enabled()
        assert obs.tracer() is None

    def test_preexisting_obs_env_restored(self, tmp_path):
        """A gate already on and a tracer already installed survive the
        sweep; the sweep's events went to its own trace file."""
        prior = obs.Tracer()
        obs.set_tracer(prior)
        obs.set_enabled(True)
        _run(n_workers=1, obs_dir=tmp_path / "obs")
        assert obs.enabled()
        assert obs.tracer() is prior
        assert prior.events == []

    def test_obs_sweep_does_not_change_records(self, tmp_path):
        _assert_records_equal(_run(n_workers=1), _run(n_workers=1, obs_dir=tmp_path / "obs"))
