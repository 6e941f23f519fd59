"""The three benchmark workloads: set-up, the timed loop, and the output checks.

Each workload has a ``setup_*`` function that turns the seed into the
program's inputs (world, face map, batch stream, tracker) and a
``measure_*`` function that runs the timed loop on them, checks every
output, and returns the raw samples.  ``repro`` only ever receives the
generated inputs; the seed stays in the benchmark.

* ``online-fttt`` — the default ``fttt`` tracker, one ``localize_batch``
  round at a time, closed loop with one client, n=40, 1 m cells, R=40 m.
* ``replay-batched`` — ``fttt-exhaustive`` over a long n=100 trace in
  ``FTTTracker.track`` calls (batched Algorithm 1 + ``match_many`` GEMM),
  with a cold n=100 face-map build in every set-up.
* ``faultlab-campaign`` — ``run_campaign`` over the value-fault families
  on the shipped campaign world, two pool workers, shared-memory maps.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field

import numpy as np

import machine
from repro.config import GridConfig, SimulationConfig
from repro.faultlab.campaign import (
    DEFAULT_INTENSITIES,
    DEFAULT_TRACKERS,
    VALUE_FAULT_FAMILIES,
    campaign_config,
    run_campaign,
)
from repro.geometry.cache import configure_face_map_cache, get_face_map
from repro.sim import runner
from repro.sim.scenario import make_scenario, replication_scenarios

WORKLOADS = ("online-fttt", "replay-batched", "faultlab-campaign")

#: The campaign runs on the grid deployment: with random 12-sensor
#: deployments the world alone moves the campaign's accuracy by about a
#: quarter from seed to seed, which would hide any change a fault or a
#: tracker makes.  The tracking workloads keep random deployments.
CAMPAIGN_DEPLOYMENT = "grid"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the self-test shrinks them."""

    online_sensors: int = 40
    online_rounds: int = 300  # one pass of one part's trace
    replay_sensors: int = 100
    replay_rounds: int = 800
    replay_call_rounds: int = 25
    replay_checks: int = 8  # rounds re-matched one at a time through FaceMap.match
    campaign_reps: int = 4
    campaign_quick: bool = False
    cell_size_m: float = 1.0
    parts: "dict[str, int]" = field(  # set-ups per run, each with its own inputs
        default_factory=lambda: {"online-fttt": 5, "replay-batched": 3, "faultlab-campaign": 5}
    )
    # cold builds timed after each set-up on top of its own, so that the
    # median build time rests on a few samples per part
    extra_builds: "dict[str, int]" = field(
        default_factory=lambda: {"online-fttt": 2, "replay-batched": 1, "faultlab-campaign": 8}
    )


FULL = Sizes()


@dataclass
class Setup:
    """What one set-up produced: the inputs plus its own build time."""

    build_s: float
    config: SimulationConfig
    worlds: list  # scenarios whose face maps the set-up builds
    tracker: object = None
    face_map: object = None
    batches: list = field(default_factory=list)
    campaign: dict = field(default_factory=dict)


@dataclass
class Samples:
    """Raw outcome of one timed loop."""

    per_round_s: list  # one entry per timed operation, in seconds per round
    mean_error_m: float
    attempted: int
    failed: int
    outputs: object  # the first pass, which later passes must reproduce
    info: dict = field(default_factory=dict)
    throughput: list = field(default_factory=list)  # rounds/s per sample (replay, campaign)


def _rngs(seed: int, part: int) -> "tuple[np.random.Generator, np.random.Generator]":
    """Independent world and noise streams for one part of a run."""
    return np.random.default_rng([seed, part, 0]), np.random.default_rng([seed, part, 1])


def _tracking_config(n_sensors: int, n_rounds: int, sizes: Sizes) -> SimulationConfig:
    base = SimulationConfig(n_sensors=n_sensors)
    return base.with_(
        duration_s=n_rounds * base.localization_period_s,
        grid=GridConfig(cell_size_m=sizes.cell_size_m),
    )


def _inside(pos: np.ndarray, field_m: float) -> bool:
    return bool(np.isfinite(pos).all() and (pos >= 0.0).all() and (pos <= field_m).all())


def _errors(positions: "list[np.ndarray]", batches: list) -> np.ndarray:
    est = np.stack(positions)
    truth = np.stack([b.mean_position for b in batches])
    return np.hypot(est[:, 0] - truth[:, 0], est[:, 1] - truth[:, 1])


# -- set-up ----------------------------------------------------------------


def _setup_tracking(
    seed: int, part: int, n_sensors: int, n_rounds: int, tracker_name: str, sizes: Sizes
) -> Setup:
    world_rng, noise_rng = _rngs(seed, part)
    config = _tracking_config(n_sensors, n_rounds, sizes)
    scenario = make_scenario(config, seed=world_rng)
    t0 = time.perf_counter()
    face_map = scenario.face_map  # cold: the cache is disabled during set-up
    build_s = time.perf_counter() - t0
    batches = runner.generate_batches(scenario, noise_rng, n_rounds=n_rounds)
    tracker = scenario.make_tracker(tracker_name)
    return Setup(
        build_s=build_s,
        config=config,
        worlds=[scenario],
        tracker=tracker,
        face_map=face_map,
        batches=batches,
    )


def setup_online(seed: int, part: int, sizes: Sizes) -> Setup:
    s = _setup_tracking(seed, part, sizes.online_sensors, sizes.online_rounds, "fttt", sizes)
    s.tracker.localize_batch(s.batches[0])  # decode the f32 signatures once
    s.tracker.reset()
    return s


def setup_replay(seed: int, part: int, sizes: Sizes) -> Setup:
    s = _setup_tracking(seed, part, sizes.replay_sensors, sizes.replay_rounds, "fttt-exhaustive", sizes)
    s.tracker.track(s.batches[: sizes.replay_call_rounds])  # f32 decode + GEMM squared norms
    return s


def setup_campaign(seed: int, part: int, sizes: Sizes) -> Setup:
    config = campaign_config(quick=sizes.campaign_quick)
    seed = int(np.random.SeedSequence([seed, part]).generate_state(1)[0])
    scenarios = replication_scenarios(
        config, n_reps=sizes.campaign_reps, seed=seed, deployment=CAMPAIGN_DEPLOYMENT
    )
    # the distinct maps every campaign's shared-memory prebuild builds cold
    distinct = list({sc.face_map_key(): sc for sc in scenarios}.values())
    build_s = cold_build_s(distinct)
    campaign = dict(
        families=VALUE_FAULT_FAMILIES,
        intensities=DEFAULT_INTENSITIES,
        trackers=DEFAULT_TRACKERS,
        config=config,
        n_reps=sizes.campaign_reps,
        seed=seed,
        n_workers=min(2, os.cpu_count() or 1),
        share_maps=True,
        deployment=CAMPAIGN_DEPLOYMENT,
    )
    return Setup(build_s=build_s, config=config, worlds=distinct, campaign=campaign)


SETUPS = {
    "online-fttt": setup_online,
    "replay-batched": setup_replay,
    "faultlab-campaign": setup_campaign,
}


def cold_build_s(worlds: list) -> float:
    """Wall time of building every world's face map through ``get_face_map``
    (cold when the cache is disabled)."""
    t0 = time.perf_counter()
    for sc in worlds:
        get_face_map(
            sc.nodes,
            sc.grid,
            sc.uncertainty_c,
            sensing_range=sc.config.sensing_range_m,
            split_components=sc.config.grid.split_components,
        )
    return time.perf_counter() - t0


def one_setup(workload: str, seed: int, sizes: Sizes, part: int = 0) -> "tuple[Setup, float]":
    """Set up part *part* of a run from scratch, with the face-map cache
    disabled so its build is cold and uncached; returns it with its wall
    time."""
    configure_face_map_cache(enabled=False)
    try:
        t0 = time.perf_counter()
        setup = SETUPS[workload](seed, part, sizes)
        return setup, time.perf_counter() - t0
    finally:
        configure_face_map_cache(enabled=None)


# -- timed loops -------------------------------------------------------------
#
# Every loop completes at least one pass over its inputs, whose outputs
# become the reference, and keeps going until *seconds* have passed; every
# later pass must reproduce the reference bit for bit.


def measure_online(s: Setup, seconds: float, sizes: Sizes, probe=None) -> Samples:
    """Closed loop, one client: every ``localize_batch`` call is one sample.

    The trace is replayed from a reset tracker.  A round fails when its
    estimate is not finite, lies outside the field, misses the deadline
    of one grouping period, or differs from the first pass.
    """
    tracker, batches = s.tracker, s.batches
    deadline = s.config.localization_period_s
    field_m = s.config.field_size_m
    first: list = []
    latencies: list = []
    failed = passes = 0
    gc.collect()
    stop = time.perf_counter() + seconds
    done = False
    while not done:
        tracker.reset()
        for i, batch in enumerate(batches):
            t0 = time.perf_counter()
            est = tracker.localize_batch(batch)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            if probe is not None:
                probe.maybe()
            ok = dt <= deadline and _inside(est.position, field_m)
            if i == len(first):
                first.append(est.position)
            elif not np.array_equal(est.position, first[i]):
                ok = False
            failed += not ok
            if t0 + dt >= stop and len(first) == len(batches):
                done = True
                break
        passes += 1
    return Samples(
        per_round_s=latencies,
        mean_error_m=float(_errors(first, batches).mean()),
        attempted=len(latencies),
        failed=failed,
        outputs=first,
        info={"passes": passes},
    )


def measure_replay(s: Setup, seconds: float, sizes: Sizes, probe=None) -> Samples:
    """``track`` calls of ``replay_call_rounds`` rounds each over the
    pre-generated trace; every call is one sample.

    A round fails when its estimate is not finite, lies outside the
    field, or differs from the first pass; see also :func:`rematch_failures`.
    """
    tracker, batches = s.tracker, s.batches
    field_m = s.config.field_size_m
    step = sizes.replay_call_rounds
    first: list = []
    per_round: list = []
    throughput: list = []
    failed = attempted = passes = 0
    gc.collect()
    stop = time.perf_counter() + seconds
    done = False
    while not done:
        for start in range(0, len(batches), step):
            seg = batches[start : start + step]
            t0 = time.perf_counter()
            result = tracker.track(seg)
            dt = time.perf_counter() - t0
            per_round.append(dt / len(seg))
            throughput.append(len(seg) / dt)
            if probe is not None:
                probe.maybe()
            for i, est in enumerate(result.estimates, start=start):
                ok = _inside(est.position, field_m)
                if i == len(first):
                    first.append(est)
                elif not np.array_equal(est.position, first[i].position):
                    ok = False
                failed += not ok
            attempted += len(seg)
            if t0 + dt >= stop and len(first) == len(batches):
                done = True
                break
        passes += 1
    return Samples(
        per_round_s=per_round,
        mean_error_m=float(_errors([e.position for e in first], batches).mean()),
        attempted=attempted,
        failed=failed,
        outputs=first,
        info={"passes": passes},
        throughput=throughput,
    )


def same_outputs(a: list, b: list) -> bool:
    """Bit-identity of two reference outputs (positions, estimates or records)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if hasattr(x, "face_ids"):
            same = np.array_equal(x.position, y.position) and np.array_equal(x.face_ids, y.face_ids)
        elif isinstance(x, np.ndarray):
            same = np.array_equal(x, y)
        else:
            same = x == y
        if not same:
            return False
    return True


def rematch_failures(s: Setup, estimates: list, sizes: Sizes) -> int:
    """Re-match evenly spaced rounds one at a time through ``FaceMap.match``;
    count those whose ties or position are not bit-identical to the
    batched path's *estimates*.  Kept out of the timed loop."""
    fm, tracker, batches = s.face_map, s.tracker, s.batches
    failed = 0
    for i in np.linspace(0, len(batches) - 1, sizes.replay_checks).round().astype(int):
        ties, _ = fm.match(tracker.build_vector(batches[i].rss))
        position = fm.centroids[ties].mean(axis=0)
        est = estimates[i]
        if not (np.array_equal(ties, est.face_ids) and np.array_equal(position, est.position)):
            failed += 1
    return failed


def campaign_cells(campaign: dict) -> set:
    return {
        (family, float(intensity), tracker)
        for family in campaign["families"]
        for intensity in campaign["intensities"]
        for tracker in campaign["trackers"]
    }


def check_campaign(records: list, campaign: dict) -> int:
    """Cells without exactly one record with finite errors."""
    expected = campaign_cells(campaign)
    seen: dict = {}
    for r in records:
        key = (r.params.get("fault"), float(r.params.get("intensity", -1.0)), r.tracker)
        finite = bool(np.isfinite(r.mean_error) and np.isfinite(r.p95_error))
        seen[key] = (seen.get(key, (0, True))[0] + 1, finite and seen.get(key, (0, True))[1])
    bad = sum(1 for key in expected if seen.get(key, (0, False)) != (1, True))
    return bad + sum(1 for key in seen if key not in expected)


def campaign_outputs(records: list) -> list:
    return sorted(
        (r.params["fault"], r.params["intensity"], r.tracker, r.mean_error, r.p95_error, r.lost_track_rate)
        for r in records
    )


def run_one_campaign(campaign: dict, **extra):
    """One campaign from a cold in-memory face-map cache."""
    configure_face_map_cache()  # fresh instance: nothing cached from earlier samples
    return run_campaign(
        campaign["families"],
        campaign["intensities"],
        campaign["trackers"],
        config=campaign["config"],
        n_reps=campaign["n_reps"],
        seed=campaign["seed"],
        n_workers=campaign["n_workers"],
        share_maps=campaign["share_maps"],
        deployment=campaign["deployment"],
        **extra,
    )


def measure_campaign(s: Setup, seconds: float, sizes: Sizes, probe=None, **extra) -> Samples:
    """Whole campaigns back to back, at least one, until *seconds* have
    passed; every campaign is one sample.

    A cell fails when it lacks exactly one finite record or when its
    record differs from the first campaign's.  The accuracy figure is the median
    over cells of each cell's mean error: one cell per (family,
    intensity, tracker), so the heavily faulted cells do not swamp it.
    """
    campaign = s.campaign
    n_cells = len(campaign_cells(campaign))
    rounds = n_cells * campaign["n_reps"] * s.config.n_localizations
    per_round: list = []
    throughput: list = []
    first = None
    failed = attempted = 0
    stop = time.perf_counter() + seconds
    while not per_round or time.perf_counter() < stop:
        gc.collect()
        t0 = time.perf_counter()
        result = run_one_campaign(campaign, **extra)
        dt = time.perf_counter() - t0
        per_round.append(dt / rounds)
        if probe is not None:
            probe.maybe()
        throughput.append(rounds / dt)
        attempted += n_cells
        failed += check_campaign(result.records, campaign)
        outputs = campaign_outputs(result.records)
        if first is None:
            first = outputs
        elif outputs != first:
            failed += n_cells
    return Samples(
        per_round_s=per_round,
        mean_error_m=float(np.median([cell[3] for cell in first])),
        attempted=attempted,
        failed=failed,
        outputs=first,
        info={
            "passes": len(per_round),
            "cells_per_campaign": n_cells,
            "tracker_rounds_per_campaign": rounds,
        },
        throughput=throughput,
    )


MEASURES = {
    "online-fttt": measure_online,
    "replay-batched": measure_replay,
    "faultlab-campaign": measure_campaign,
}


def run_parts(workload: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    """The untraced run, in ``sizes.parts[workload]`` parts.

    Each part sets up its own inputs from ``(seed, part)`` from scratch —
    another deployment, trace and noise — and runs the timed loop on them
    for an equal share of *seconds*.  Spreading set-ups over the run lets
    set-up and build times sample the same stretch of machine time as the
    loop, and averaging over several worlds keeps one deployment from
    setting a run's figures.
    """
    n_parts = sizes.parts[workload]
    measure = MEASURES[workload]
    setup_times, build_times, results = [], [], []
    probe = machine.SpeedProbe()
    for part in range(n_parts):
        setup = None  # free the previous maps before building the next
        gc.collect()
        setup, setup_s = one_setup(workload, seed, sizes, part)
        setup_times.append(setup_s)
        build_times.append(setup.build_s)
        configure_face_map_cache(enabled=False)
        try:
            build_times += [cold_build_s(setup.worlds) for _ in range(sizes.extra_builds[workload])]
        finally:
            configure_face_map_cache(enabled=None)
        results.append(measure(setup, seconds / n_parts, sizes, probe))
    failed = sum(x.failed for x in results)
    if workload == "replay-batched":
        failed += rematch_failures(setup, results[-1].outputs, sizes)
    per_round = [t for x in results for t in x.per_round_s]
    throughput = [r for x in results for r in x.throughput]
    return {
        "per_round_s": per_round,
        "rounds_per_s": (
            float(np.median(throughput)) if throughput else len(per_round) / float(np.sum(per_round))
        ),
        "mean_error_m": float(np.mean([x.mean_error_m for x in results])),
        "attempted": sum(x.attempted for x in results),
        "failed": failed,
        "setup_times_s": setup_times,
        "build_times_s": build_times,
        "info": {
            **results[0].info,
            "parts": n_parts,
            "passes": [x.info["passes"] for x in results],
            "speed_probe_ms": probe.median_ms(),
            "speed_probe_samples": len(probe.samples),
        },
    }
