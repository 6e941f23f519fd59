"""Sweeps are bit-identical with the face-map cache on, off, and on disk.

The cache is a pure performance layer: a sweep must emit exactly the same
records (and therefore exactly the same CSV bytes) whether every face map
is rebuilt from scratch, served from the in-memory LRU, or loaded from a
shared on-disk store by pool workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro import obs
from repro.geometry.cache import configure_face_map_cache, default_face_map_cache
from repro.sim.io import records_to_csv
from repro.sim.parallel import parallel_sweep

TINY = SimulationConfig(duration_s=6.0, grid=GridConfig(cell_size_m=4.0))

# spawns real worker pools; skippable in the quick loop via -m "not slow"
pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    monkeypatch.delenv("REPRO_FACE_CACHE_DIR", raising=False)
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    yield
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()


def _points():
    return [(TINY.with_(n_sensors=n), {"n_sensors": n}) for n in (6, 9)]


def _run(**kwargs):
    return parallel_sweep(_points(), ["fttt", "nearest"], n_reps=2, seed=5, **kwargs)


def _assert_records_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.tracker == y.tracker
        assert x.params == y.params
        assert x.mean_error == y.mean_error
        assert x.std_error == y.std_error
        assert x.mean_of_std == y.mean_of_std
        assert x.per_rep_means == y.per_rep_means


class TestCacheEquivalence:
    def test_cache_on_vs_off_identical_records_and_csv(self, tmp_path):
        configure_face_map_cache(enabled=False)
        off = _run(n_workers=1)
        configure_face_map_cache(enabled=None)
        on = _run(n_workers=1)
        _assert_records_equal(off, on)
        path_off = records_to_csv(off, tmp_path / "off.csv")
        path_on = records_to_csv(on, tmp_path / "on.csv")
        assert path_off.read_bytes() == path_on.read_bytes()

    def test_disk_cache_dir_identical_and_populated(self, tmp_path):
        plain = _run(n_workers=1)
        store = tmp_path / "facemaps"
        configure_face_map_cache(disk_dir=store)  # empty in-memory tier
        cached = _run(n_workers=1)
        _assert_records_equal(plain, cached)
        assert list(store.glob("facemap-*.npz"))  # workers shared a store
        # a second run over a warm store still agrees exactly
        configure_face_map_cache(disk_dir=store)
        rerun = _run(n_workers=1)
        _assert_records_equal(plain, rerun)

    def test_pool_workers_with_disk_cache_match_inline(self, tmp_path, monkeypatch):
        inline = _run(n_workers=1)
        store = tmp_path / "store"
        # the environment reaches spawned workers, the configured cache forked ones
        monkeypatch.setenv("REPRO_FACE_CACHE_DIR", str(store))
        configure_face_map_cache(disk_dir=store)
        pooled = _run(n_workers=2)
        _assert_records_equal(inline, pooled)
        assert list(store.glob("facemap-*.npz"))

    def test_scenario_estimates_identical_cache_on_off(self):
        from repro.network.faults import IndependentDropout
        from repro.sim.runner import generate_batches
        from repro.sim.scenario import make_scenario

        def trace(cfg):
            scenario = make_scenario(cfg, seed=2)
            batches = generate_batches(
                scenario, 9, faults=IndependentDropout(p=0.2), n_rounds=10
            )
            tracker = scenario.make_tracker("fttt-exhaustive")
            return tracker.track(batches)

        configure_face_map_cache(enabled=False)
        cold = trace(TINY.with_(n_sensors=8))
        configure_face_map_cache(enabled=None)
        warm = trace(TINY.with_(n_sensors=8))  # builds + caches
        with obs.observe() as registry:
            warm2 = trace(TINY.with_(n_sensors=8))  # pure cache hit
        assert registry.counter("geometry.cache.hits").value >= 1
        for res in (warm, warm2):
            assert np.array_equal(cold.positions, res.positions)
            for x, y in zip(cold.estimates, res.estimates):
                assert np.array_equal(x.face_ids, y.face_ids)
                assert x.sq_distance == y.sq_distance
