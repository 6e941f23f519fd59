"""Tests for shared-memory sweeps (``parallel_sweep(share_maps=True)``).

The sweep contract extends to the zero-copy transport: identical records
whether workers attach shared maps, unpickle, or rebuild — and no
``/dev/shm`` segment survives the sweep, even when a worker dies.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import GridConfig, SimulationConfig
from repro.geometry.shm import SEGMENT_PREFIX, owned_segment_names
from repro.sim.parallel import parallel_sweep
from repro.sim.scenario import replication_scenarios

TINY = SimulationConfig(duration_s=6.0, grid=GridConfig(cell_size_m=4.0))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)


def _shm_entries() -> set[str]:
    return {f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX)}


def _campaign_points(n=3):
    # the campaign shape: same config at every point, seed_stride=0
    cfg = TINY.with_(n_sensors=6)
    return [(cfg, {"point": i}) for i in range(n)]


def _records_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.tracker == rb.tracker
        assert ra.params == rb.params
        assert ra.mean_error == rb.mean_error
        assert ra.std_error == rb.std_error
        assert ra.per_rep_means == rb.per_rep_means


class TestSharedSweep:
    def test_bit_identical_to_pickled(self):
        kwargs = dict(n_reps=2, seed=5, seed_stride=0, n_workers=2)
        base = parallel_sweep(_campaign_points(), ["fttt"], share_maps=False, **kwargs)
        shared = parallel_sweep(
            _campaign_points(), ["fttt"], share_maps=True, chunksize=1, **kwargs
        )
        _records_equal(base, shared)

    def test_bit_identical_to_inline(self):
        inline = parallel_sweep(
            _campaign_points(), ["fttt"], n_reps=1, seed=2, seed_stride=0, n_workers=1
        )
        shared = parallel_sweep(
            _campaign_points(),
            ["fttt"],
            n_reps=1,
            seed=2,
            seed_stride=0,
            n_workers=2,
            share_maps=True,
        )
        _records_equal(inline, shared)

    def test_no_leaked_segments(self):
        before = _shm_entries()
        parallel_sweep(
            _campaign_points(),
            ["fttt"],
            n_reps=1,
            seed=0,
            seed_stride=0,
            n_workers=2,
            share_maps=True,
        )
        assert _shm_entries() <= before
        assert owned_segment_names() == []

    def test_share_maps_ignored_inline(self):
        # n_workers=1 must not even create segments
        before = _shm_entries()
        recs = parallel_sweep(
            _campaign_points(), ["fttt"], n_reps=1, seed=0, seed_stride=0,
            n_workers=1, share_maps=True,
        )
        assert len(recs) == 3
        assert _shm_entries() == before

    def test_cleanup_when_worker_raises(self):
        # an unknown tracker makes every task raise inside the pool
        before = _shm_entries()
        with pytest.raises(Exception):
            parallel_sweep(
                _campaign_points(),
                ["no-such-tracker"],
                n_reps=1,
                seed=0,
                seed_stride=0,
                n_workers=2,
                share_maps=True,
            )
        assert _shm_entries() <= before
        assert owned_segment_names() == []


class TestReplicationScenarios:
    def test_face_map_key_matches_cache_key(self):
        from repro.geometry.cache import face_map_cache_key

        cfg = TINY.with_(n_sensors=6)
        (scenario,) = replication_scenarios(cfg, n_reps=1, seed=3)
        expected = face_map_cache_key(
            scenario.nodes,
            scenario.grid,
            scenario.uncertainty_c,
            sensing_range=scenario.config.sensing_range_m,
            split_components=scenario.config.grid.split_components,
            kind="uncertain",
        )
        assert scenario.face_map_key() == expected



def test_pooled_campaign_counts_the_prebuild_misses(tmp_path):
    """The parent builds the shared maps before the pool starts; a fresh
    process (empty face-map cache) must report one miss per map built."""
    from repro.faultlab.campaign import campaign_config

    script = (
        "from repro.faultlab.campaign import campaign_config, run_campaign\n"
        "run_campaign(['dropout'], [0.0, 0.2], ['fttt'], config=campaign_config(quick=True),\n"
        f"             n_reps=2, seed=3, n_workers=2, share_maps=True, out_dir={str(tmp_path)!r})\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
    metrics = json.loads((tmp_path / "metrics.json").read_text())["metrics"]
    scenarios = replication_scenarios(campaign_config(quick=True), n_reps=2, seed=3)
    built = len({sc.face_map_key() for sc in scenarios})
    assert built == 2
    assert metrics["geometry.cache.misses"]["value"] == built
    assert metrics["sweep.workers"]["value"] == 2
