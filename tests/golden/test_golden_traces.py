"""Golden-trace regression: fixed scenarios must replay bit-exactly.

The committed ``trace_*.json`` fixtures hold ``float.hex``-serialized
per-round estimates for fault-free, faulty, Byzantine and n = 20 climb
scenarios.  Re-running
the scenario must reproduce every number bit-for-bit — tolerance zero.
If a kernel change intentionally moves the numbers, regenerate with
``PYTHONPATH=src python tools/make_golden_traces.py`` and review the diff.
"""

from __future__ import annotations

import pytest

from repro import obs
from tests.golden.golden_traces import (
    FORMAT_VERSION,
    SCENARIOS,
    build_trace,
    golden_path,
    load_golden,
)

NAMES = sorted(SCENARIOS)


@pytest.mark.parametrize("name", NAMES)
def test_fixture_exists_and_versioned(name):
    assert golden_path(name).is_file(), (
        f"missing golden fixture {golden_path(name)}; generate with "
        "PYTHONPATH=src python tools/make_golden_traces.py"
    )
    assert load_golden(name)["format_version"] == FORMAT_VERSION


@pytest.mark.parametrize("name", NAMES)
def test_trace_replays_bit_exactly(name):
    golden = load_golden(name)
    fresh = build_trace(name)
    assert fresh["config"] == golden["config"], "golden scenario definition drifted"
    assert sorted(fresh["trackers"]) == sorted(golden["trackers"])
    for tracker, want in golden["trackers"].items():
        got = fresh["trackers"][tracker]
        assert got["mean_error"] == want["mean_error"], f"{name}/{tracker}: mean error moved"
        assert len(got["rounds"]) == len(want["rounds"])
        for r, (g, w) in enumerate(zip(got["rounds"], want["rounds"])):
            assert g == w, f"{name}/{tracker} round {r} diverged: {g} != {w}"


def test_baseline_and_faulty_differ():
    """The fault injection must actually change the numbers being pinned."""
    a = load_golden("baseline")
    b = load_golden("faulty")
    assert a["trackers"]["fttt"]["rounds"] != b["trackers"]["fttt"]["rounds"]


def test_faulty_trace_has_masked_rounds():
    """The faulty fixture exercises Eq. 6: some sensors stop reporting."""
    golden = load_golden("faulty")
    n_reporting = [r["n_reporting"] for r in golden["trackers"]["fttt"]["rounds"]]
    baseline = [r["n_reporting"] for r in load_golden("baseline")["trackers"]["fttt"]["rounds"]]
    assert min(n_reporting) < max(baseline)


def test_byzantine_trace_exercises_quorum_fallback():
    """The byzantine fixture pins the degradation path, not just matching.

    The scripted blackout leaves fewer than three reporters mid-run;
    ``fttt-robust`` must hold the previous face there (``sq_distance``
    serializes as ``inf``) while plain ``fttt`` keeps matching.
    """
    golden = load_golden("byzantine")
    robust = golden["trackers"]["fttt-robust"]["rounds"]
    plain = golden["trackers"]["fttt"]["rounds"]
    held = [r for r in robust if r["sq_distance"] == "inf"]
    assert held, "no quorum-fallback round pinned"
    assert all(r["n_reporting"] < 3 for r in held)
    assert not any(r["sq_distance"] == "inf" for r in plain)
    # a held round repeats the previous round's position bit-for-bit
    idx = robust.index(held[0])
    assert idx > 0
    assert held[0]["position"] == robust[idx - 1]["position"]


def test_byzantine_trace_separates_trackers():
    """Value faults must actually split the three pinned trackers."""
    golden = load_golden("byzantine")
    rounds = {t: golden["trackers"][t]["rounds"] for t in golden["trackers"]}
    assert rounds["fttt"] != rounds["fttt-robust"]
    assert golden["trackers"]["fttt"]["mean_error"] != (
        golden["trackers"]["fttt-robust"]["mean_error"]
    )


def test_climb_trace_is_decided_by_the_climb():
    """At n = 20 the default fttt climb, not its fallback scan, decides
    most rounds, and the fixture still pins a few fallbacks."""
    with obs.observe() as reg:
        build_trace("climb")
        snap = reg.snapshot()
    climbs = snap["core.heuristic.rounds"]["value"]
    fallbacks = snap.get("core.heuristic.fallbacks", {"value": 0})["value"]
    golden = load_golden("climb")
    assert golden["config"]["n_sensors"] >= 20
    assert len(golden["trackers"]["fttt"]["rounds"]) >= 20
    assert climbs == len(golden["trackers"]["fttt"]["rounds"]) - 1  # round 0 seeds
    assert 0 < fallbacks < climbs / 2
