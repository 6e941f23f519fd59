"""Tests for repro.geometry.cache — the content-addressed face-map cache.

The cache's contract is strict: a cached (or disk-loaded) face map must
be *bit-identical* to a fresh build, and the one map a hit hands to every
user must carry no state one user could change for another.  Lookups are
counted by the ``geometry.cache.*`` obs counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.cache import (
    FaceMapCache,
    configure_face_map_cache,
    default_face_map_cache,
    face_map_cache_enabled,
    face_map_cache_key,
    get_face_map,
)
from repro.geometry.faces import build_certain_face_map, build_face_map
from repro.geometry.grid import Grid
from repro.obs import metrics as obs


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    """Isolate the process-global cache and the cache counters per test."""
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.set_enabled(None)
    obs.reset()
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)


def _count(name: str) -> int:
    """The ``geometry.cache.<name>`` counter."""
    return obs.counter("geometry.cache." + name).value


def _assert_identical(a, b):
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.signatures, b.signatures)
    assert a.signatures.dtype == b.signatures.dtype
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.cell_face, b.cell_face)
    assert np.array_equal(a.cell_counts, b.cell_counts)
    assert np.array_equal(a.adj_indptr, b.adj_indptr)
    assert np.array_equal(a.adj_indices, b.adj_indices)
    assert a.c == b.c
    assert (a.grid.width, a.grid.height, a.grid.cell_size) == (
        b.grid.width,
        b.grid.height,
        b.grid.cell_size,
    )


class TestCacheKey:
    def test_deterministic(self, four_nodes, small_grid):
        k1 = face_map_cache_key(four_nodes, small_grid, 1.5)
        k2 = face_map_cache_key(four_nodes.copy(), small_grid, 1.5)
        assert k1 == k2

    def test_content_addressed(self, four_nodes, small_grid):
        moved = four_nodes.copy()
        moved[0, 0] += 1e-9  # any bit-level change must change the key
        assert face_map_cache_key(four_nodes, small_grid, 1.5) != face_map_cache_key(
            moved, small_grid, 1.5
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 1.6},
            {"sensing_range": 40.0},
            {"split_components": True},
            {"kind": "certain"},
        ],
    )
    def test_every_parameter_feeds_the_key(self, four_nodes, small_grid, kwargs):
        base = face_map_cache_key(four_nodes, small_grid, 1.5)
        c = kwargs.pop("c", 1.5)
        assert face_map_cache_key(four_nodes, small_grid, c, **kwargs) != base

    def test_grid_feeds_the_key(self, four_nodes):
        a = face_map_cache_key(four_nodes, Grid.square(100.0, 2.0), 1.5)
        b = face_map_cache_key(four_nodes, Grid.square(100.0, 2.5), 1.5)
        assert a != b

    def test_unknown_kind_rejected(self, four_nodes, small_grid):
        with pytest.raises(ValueError, match="kind"):
            face_map_cache_key(four_nodes, small_grid, 1.5, kind="exotic")


class TestMemoryTier:
    def test_hit_returns_identical_map(self, four_nodes, small_grid):
        cache = FaceMapCache(maxsize=4)
        cold = cache.get_or_build(four_nodes, small_grid, 1.5)
        warm = cache.get_or_build(four_nodes, small_grid, 1.5)
        _assert_identical(cold, warm)
        assert _count("hits") == 1
        assert _count("misses") == 1
        assert warm is cold  # the cached map itself: no rebuild, no copy

    def test_cached_map_arrays_are_read_only(self, four_nodes, small_grid):
        fm = FaceMapCache(maxsize=4).get_or_build(four_nodes, small_grid, 1.5)
        for name in (
            "nodes",
            "signatures",
            "centroids",
            "cell_face",
            "cell_counts",
            "adj_indptr",
            "adj_indices",
        ):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fm, name)[0] = 0

    def test_matches_direct_build(self, four_nodes, small_grid):
        cache = FaceMapCache(maxsize=4)
        cached = cache.get_or_build(
            four_nodes, small_grid, 1.5, sensing_range=40.0, split_components=True
        )
        direct = build_face_map(
            four_nodes, small_grid, 1.5, sensing_range=40.0, split_components=True
        )
        _assert_identical(cached, direct)

    def test_certain_kind_matches_direct_build(self, four_nodes, small_grid):
        cache = FaceMapCache(maxsize=4)
        cached = cache.get_or_build(four_nodes, small_grid, 1.0, kind="certain")
        direct = build_certain_face_map(four_nodes, small_grid)
        _assert_identical(cached, direct)

    def test_lru_eviction(self, four_nodes, small_grid):
        cache = FaceMapCache(maxsize=1)
        cache.get_or_build(four_nodes, small_grid, 1.5)
        cache.get_or_build(four_nodes, small_grid, 1.6)  # evicts the first
        cache.get_or_build(four_nodes, small_grid, 1.5)  # rebuild
        assert len(cache) == 1
        assert _count("hits") == 0
        assert _count("misses") == 3
        assert _count("disk_hits") == 0
        assert _count("shm_hits") == 0
        assert _count("evictions") == 2

    def test_zero_maxsize_disables_memory_tier(self, four_nodes, small_grid):
        cache = FaceMapCache(maxsize=0)
        cache.get_or_build(four_nodes, small_grid, 1.5)
        cache.get_or_build(four_nodes, small_grid, 1.5)
        assert _count("misses") == 2
        assert len(cache) == 0


class TestDiskTier:
    def test_roundtrip_bit_identical(self, four_nodes, small_grid, tmp_path):
        writer = FaceMapCache(maxsize=0, disk_dir=tmp_path / "store")
        cold = writer.get_or_build(four_nodes, small_grid, 1.5, sensing_range=40.0)
        reader = FaceMapCache(maxsize=0, disk_dir=tmp_path / "store")
        warm = reader.get_or_build(four_nodes, small_grid, 1.5, sensing_range=40.0)
        _assert_identical(cold, warm)
        assert _count("disk_hits") == 1
        assert _count("misses") == 1  # the writer's build

    def test_matching_results_identical_after_disk_roundtrip(
        self, four_nodes, small_grid, tmp_path
    ):
        writer = FaceMapCache(maxsize=0, disk_dir=tmp_path)
        cold = writer.get_or_build(four_nodes, small_grid, 1.5)
        reader = FaceMapCache(maxsize=0, disk_dir=tmp_path)
        warm = reader.get_or_build(four_nodes, small_grid, 1.5)
        v = cold.signatures[cold.n_faces // 2].astype(float)
        v[0] = np.nan
        ties_a, d2_a = cold.match(v)
        ties_b, d2_b = warm.match(v)
        assert np.array_equal(ties_a, ties_b)
        assert d2_a == d2_b

    def test_corrupt_file_treated_as_miss(self, four_nodes, small_grid, tmp_path):
        cache = FaceMapCache(maxsize=0, disk_dir=tmp_path)
        cache.get_or_build(four_nodes, small_grid, 1.5)
        for path in tmp_path.glob("facemap-*.npz"):
            path.write_bytes(b"not an npz")
        rebuilt = cache.get_or_build(four_nodes, small_grid, 1.5)
        direct = build_face_map(four_nodes, small_grid, 1.5)
        _assert_identical(rebuilt, direct)
        assert _count("misses") == 2


class TestGlobalCache:
    def test_get_face_map_equals_direct_build(self, four_nodes, small_grid):
        cached = get_face_map(four_nodes, small_grid, 1.5, sensing_range=40.0)
        direct = build_face_map(four_nodes, small_grid, 1.5, sensing_range=40.0)
        _assert_identical(cached, direct)

    def test_kill_switch_and_default(self, four_nodes, small_grid):
        configure_face_map_cache(enabled=False)
        assert not face_map_cache_enabled()
        get_face_map(four_nodes, small_grid, 1.5)
        assert _count("misses") == 0  # bypassed
        configure_face_map_cache(enabled=None)  # the default: on (a fresh cache)
        assert face_map_cache_enabled()
        get_face_map(four_nodes, small_grid, 1.5)
        assert _count("misses") == 1

    @pytest.mark.parametrize("enabled", [True, False])
    def test_unknown_kind_rejected_cache_on_and_off(self, four_nodes, small_grid, enabled):
        configure_face_map_cache(enabled=enabled)
        with pytest.raises(ValueError, match="kind"):
            get_face_map(four_nodes, small_grid, 1.5, kind="exotic")

    def test_hit_is_the_cached_object(self, four_nodes, small_grid):
        assert get_face_map(four_nodes, small_grid, 1.5) is get_face_map(
            four_nodes, small_grid, 1.5
        )

    def test_scenario_reuses_cache_across_instances(self, four_nodes):
        from repro.config import GridConfig, SimulationConfig
        from repro.sim.scenario import make_scenario

        cfg = SimulationConfig(n_sensors=4, grid=GridConfig(cell_size_m=4.0))
        a = make_scenario(cfg, nodes=four_nodes, seed=0)
        b = make_scenario(cfg, nodes=four_nodes, seed=1)
        assert a.face_map is b.face_map  # one shared map
        assert a.certain_map is b.certain_map
        assert _count("hits") >= 2

    def test_soft_tracker_leaves_shared_map_unchanged(self):
        """Running ``fttt-extended`` on one scenario changes nothing that a
        second scenario of the same world reads from the shared map: its
        ``fttt`` and ``fttt-exhaustive`` estimates are bit-identical to a
        run on a map of its own."""
        from repro.config import GridConfig, SimulationConfig
        from repro.network.faults import IndependentDropout
        from repro.sim.runner import generate_batches
        from repro.sim.scenario import make_scenario

        cfg = SimulationConfig(n_sensors=8, duration_s=10.0, grid=GridConfig(cell_size_m=4.0))

        def run(scenario) -> dict:
            batches = generate_batches(
                scenario, 9, faults=IndependentDropout(p=0.2), n_rounds=12
            )
            return {
                name: scenario.make_tracker(name).track(batches)
                for name in ("fttt", "fttt-exhaustive", "fttt-extended")
            }

        configure_face_map_cache(enabled=False)
        alone = run(make_scenario(cfg, seed=2))
        configure_face_map_cache(enabled=None)
        first = make_scenario(cfg, seed=2)
        run(first)
        second = make_scenario(cfg, seed=2)
        assert second.face_map is first.face_map
        shared = run(second)
        for name in ("fttt", "fttt-exhaustive"):
            assert np.array_equal(alone[name].positions, shared[name].positions)
            for x, y in zip(alone[name].estimates, shared[name].estimates):
                assert x.face_ids.tolist() == y.face_ids.tolist()
                assert x.sq_distance == y.sq_distance
