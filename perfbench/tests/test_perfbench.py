"""Self-test of the benchmark harness, on tiny inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    online_sensors=8,
    online_rounds=30,
    replay_sensors=10,
    replay_rounds=40,
    replay_call_rounds=10,
    replay_checks=2,
    campaign_reps=1,
    campaign_quick=True,
    cell_size_m=4.0,
    parts={w: 1 for w in workloads.WORKLOADS},
)


def _originals() -> dict:
    return {(owner, attr): vars(owner)[attr] for owner, attr in layers.PATCHED}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_bit_identical_and_unwraps(workload, tmp_path):
    before = _originals()
    out = layers.traced_run(workload, 3, TINY, tmp_path)
    assert out["identical"], "tracing changed the program's outputs"
    assert out["failed"] == 0
    after = _originals()
    assert all(after[key] is before[key] for key in before), "a wrapper was left installed"
    metrics = out["metrics"]
    assert set(metrics) == set(layers.UNITS)
    assert all(math.isfinite(v) for v in metrics.values())
    if workload != "faultlab-campaign":
        # the layers cover the whole traced round
        parts = sum(
            metrics[k]
            for k in (
                "vectors.ms",
                "heuristic.climb_ms",
                "faces.scan_ms",
                "faces.match_many_ms",
                "tracker.other_ms",
            )
        )
        assert parts == pytest.approx(metrics["tracker.round_ms"], rel=1e-9)


def test_traced_counts_repeat_exactly(tmp_path):
    exact = ("heuristic.fallback_rate", "heuristic.faces_visited", "build.faces", "faces.ties")
    first = layers.traced_run("online-fttt", 5, TINY, tmp_path)["metrics"]
    second = layers.traced_run("online-fttt", 5, TINY, tmp_path)["metrics"]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_probe_unwraps_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.Probe():
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is before[(owner, attr)] for owner, attr in layers.PATCHED)


def test_smoke_every_workload_in_seconds():
    start = time.perf_counter()
    for workload in workloads.WORKLOADS:
        out = run.run(workload, 7, 0.2, False, sizes=TINY)
        assert out["failed"] == 0, workload
        assert out["attempted"] >= 1
        assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
        for name, metric in out["metrics"].items():
            assert metric["unit"] == run.END_TO_END_UNITS[name]
            assert math.isfinite(metric["value"]) and metric["value"] > 0, (workload, name)
        assert out["details"]["machine"]["nproc"] >= 1
    assert time.perf_counter() - start < 60


def test_same_seed_gives_same_inputs():
    a = workloads.setup_online(11, 2, TINY)
    b = workloads.setup_online(11, 2, TINY)
    assert all(
        (x.rss.tobytes() == y.rss.tobytes()) for x, y in zip(a.batches, b.batches, strict=True)
    )
    assert a.face_map.nodes.tobytes() == b.face_map.nodes.tobytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-fttt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_exit_handler_stops_and_reaps_the_resource_tracker():
    import os
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_resource_tracker(os.getpid() + 1)  # not the owner: leaves it alone
    os.kill(pid, 0)
    run.stop_resource_tracker(os.getpid())
    assert resource_tracker._resource_tracker._fd is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped
