"""PERF — the batched matching kernels and the face-map cache.

Microbenchmarks for the performance layer: cold vs warm face-map
construction through the content-addressed cache, per-round loop vs
batched GEMM matching of a 100-round trace, the Algorithm 2 ring cache
against rebuilding every ring, end-to-end sweep throughput with the
cache on and off, and the shared-memory sweep path against its pickled
twin.  Numbers print through ``emit``; the assertions pin the speedup
floors the layer promises (warm reuse ≥ 5x, batched matching ≥ 3x, ring
cache ≥ 1.1x).  The end-to-end benchmark with recorded machine details is
``perfbench/`` (see ``perfbench/README.md``).

Run:  PYTHONPATH=src pytest benchmarks/test_perf_kernels.py -s
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro.core.vectors import sampling_vector, sampling_vectors
from repro.geometry.cache import (
    FaceMapCache,
    configure_face_map_cache,
    default_face_map_cache,
)
from repro.geometry.faces import build_face_map
from repro.geometry.shm import owned_segment_names
from repro.sim.parallel import parallel_sweep
from repro.sim.runner import generate_batches
from repro.sim.scenario import make_scenario

from conftest import emit

CFG = SimulationConfig(n_sensors=20, duration_s=50.0, grid=GridConfig(cell_size_m=2.5))
SWEEP_CFG = SimulationConfig(duration_s=8.0, grid=GridConfig(cell_size_m=4.0))

#: interleaved off/on repeats of the observability overhead measurement
OBS_REPEATS = 15

#: interleaved warm/cleared repeats of the ring-cache measurement
RING_REPEATS = 15

#: parallel speed-ups are physical: a single-core runner cannot show one
_MULTICORE = (os.cpu_count() or 1) >= 2


@pytest.fixture(autouse=True)
def _fresh_cache():
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    yield
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()


def _best_of(fn, repeats: int = 3) -> float:
    """Min-of-N wall time — the standard noise-resistant micro timer."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_face_map_cache_cold_vs_warm(results_dir):
    scenario = make_scenario(CFG, seed=33)
    nodes, grid, c = scenario.nodes, scenario.grid, scenario.uncertainty_c
    kwargs = dict(sensing_range=CFG.sensing_range_m, split_components=CFG.grid.split_components)

    t_cold = _best_of(lambda: build_face_map(nodes, grid, c, **kwargs), repeats=3)

    cache = FaceMapCache(maxsize=8)
    cache.get_or_build(nodes, grid, c, **kwargs)  # populate
    # a warm hit still hashes the node bytes — that is the honest reuse cost
    t_warm = _best_of(lambda: cache.get_or_build(nodes, grid, c, **kwargs), repeats=10)

    speedup = t_cold / t_warm
    emit(
        "PERF — face-map build, cold vs warm cache hit (n=20)",
        [
            f"cold build : {t_cold*1e3:9.2f} ms",
            f"warm hit   : {t_warm*1e6:9.2f} us",
            f"speedup    : {speedup:9.0f}x",
        ],
    )
    assert speedup >= 5.0  # the ISSUE floor; in practice it is thousands


def test_batched_matching_vs_per_round_loop(results_dir):
    scenario = make_scenario(CFG, seed=33)
    fm = scenario.face_map
    batches = generate_batches(scenario, 102, n_rounds=100)
    assert len(batches) == 100
    stack = np.stack([b.rss for b in batches])
    eps = CFG.resolution_dbm

    def loop():
        out = []
        for rss in stack:
            v = sampling_vector(rss, comparator_eps=eps)
            out.append(fm.match(v))
        return out

    def batched():
        vectors = sampling_vectors(stack, comparator_eps=eps)
        return fm.match_many(vectors)

    # equivalence guard: the timed paths must agree before we compare them
    ties_b, bests_b = batched()
    for (ties_l, best_l), t_b, b_b in zip(loop(), ties_b, bests_b):
        assert np.array_equal(ties_l, t_b) and best_l == b_b

    t_loop = _best_of(loop, repeats=3)
    t_batch = _best_of(batched, repeats=3)
    speedup = t_loop / t_batch
    emit(
        "PERF — 100-round trace: per-round loop vs batched kernels",
        [
            f"faces x pairs : {fm.n_faces} x {fm.n_pairs}",
            f"per-round loop: {t_loop*1e3:8.2f} ms",
            f"batched       : {t_batch*1e3:8.2f} ms",
            f"speedup       : {speedup:8.1f}x",
        ],
    )
    assert speedup >= 3.0


def test_sweep_throughput_cache_on_off(results_dir):
    points = [(SWEEP_CFG.with_(n_sensors=n), {"n_sensors": n}) for n in (8, 10, 12)]

    def sweep():
        return parallel_sweep(points, ["fttt-exhaustive"], n_reps=3, seed=5, n_workers=1)

    configure_face_map_cache(enabled=False)
    t_off = _best_of(sweep, repeats=2)
    off = sweep()

    configure_face_map_cache(enabled=True)
    default_face_map_cache().clear()
    sweep()  # populate
    t_on = _best_of(sweep, repeats=2)
    on = sweep()

    assert [r.mean_error for r in off] == [r.mean_error for r in on]
    speedup = t_off / t_on
    emit(
        "PERF — repeated sweep, face-map cache off vs warm",
        [
            f"cache off : {t_off:7.2f} s",
            f"cache warm: {t_on:7.2f} s",
            f"speedup   : {speedup:7.2f}x",
        ],
    )
    # the division is only part of sweep cost (tracking dominates at tiny
    # configs), so the end-to-end floor is modest
    assert speedup >= 1.0


def test_obs_disabled_and_enabled_overhead(results_dir):
    """The observability layer must be ~free when off and cheap when on.

    Disabled mode is the default for every sweep, so its cost budget is
    <5% on the hot tracking loop (each instrument site is one boolean
    check).  We time the same instrumented run with the layer forced off
    and forced on; the off/on ratio bounds what enabling costs, and the
    absolute off-mode time is printed next to it.

    A run is 15-25 ms, so wall-clock best-of-3 loops timed back to back
    mostly measure the host: off and on repeats are interleaved, each is
    timed in this thread's CPU time, and the medians are compared.
    """
    import repro.obs as obs

    scenario = make_scenario(CFG, seed=3)
    batches = generate_batches(scenario, rng=7)

    def run():
        tracker = scenario.make_tracker("fttt")
        tracker.reset()
        return tracker.track(batches)

    def cpu_time(enabled: bool) -> float:
        obs.set_enabled(enabled)
        t0 = time.thread_time()
        run()
        return time.thread_time() - t0

    times: dict[bool, list[float]] = {False: [], True: []}
    obs.set_enabled(False)
    try:
        run()  # warm the face-map cache and BLAS
        obs.reset()
        for _ in range(OBS_REPEATS):
            for enabled in (False, True):
                times[enabled].append(cpu_time(enabled))
        snap = obs.snapshot()
    finally:
        obs.set_enabled(None)
        obs.reset()

    assert snap["tracker.rounds"]["value"] > 0  # enabled mode really recorded
    t_off, t_on = float(np.median(times[False])), float(np.median(times[True]))
    overhead = t_on / t_off - 1.0
    emit(
        f"PERF — tracking loop with repro.obs off vs on (median CPU time of {OBS_REPEATS})",
        [
            f"obs off : {t_off * 1e3:7.2f} ms",
            f"obs on  : {t_on * 1e3:7.2f} ms",
            f"overhead: {overhead * 100:7.2f} %",
        ],
    )
    # even fully enabled, metrics must stay a small fraction of the loop
    assert t_on <= t_off * 1.5


def test_ring_cache_warm_vs_cleared(results_dir):
    """The Algorithm 2 ring cache must beat rebuilding every ring.

    The face map memoizes each face's 2-hop ring for every matcher on it.
    The simpler alternative rebuilds the ring from Python sets on every
    step; clearing the map's memo before each round is that alternative,
    since a round's climb rarely revisits a face.  Both climb the same
    n=40 trace to the same estimates.  A round takes ~0.1 ms, so warm and
    cleared passes are interleaved, each is timed in this thread's CPU
    time, and the medians are compared.  On 2 vCPUs the ratio measured
    1.13-1.28x over 14 runs (median 1.22x), and 1.22-1.26x over 6 runs
    once the memo moved onto the map; the floor sits below that spread so
    that it fails when the cache stops paying, not on host noise.
    """
    scenario = make_scenario(SimulationConfig(n_sensors=40), seed=1)
    tracker = scenario.make_tracker("fttt")
    batches = generate_batches(scenario, 2, n_rounds=200)
    vectors = tracker.build_vectors(np.stack([b.rss for b in batches]))
    matcher = tracker.matcher
    matcher.match(vectors[0])  # the initial exhaustive scan, outside the timing
    start, vectors = matcher.last_face, vectors[1:]

    def climb(clear: bool) -> list:
        matcher.last_face = start
        out = []
        for v in vectors:
            if clear:
                tracker.face_map._rings[matcher.hops].clear()
            out.append(matcher.match(v))
        return out

    def cpu_time(clear: bool) -> float:
        t0 = time.thread_time()
        climb(clear)
        return time.thread_time() - t0

    for warm, cleared in zip(climb(False), climb(True)):
        assert np.array_equal(warm.face_ids, cleared.face_ids)
        assert np.array_equal(warm.position, cleared.position)
        assert warm.sq_distance == cleared.sq_distance and warm.visited == cleared.visited
    times: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(RING_REPEATS):
        for clear in (False, True):
            times[clear].append(cpu_time(clear))
    t_warm, t_cleared = float(np.median(times[False])), float(np.median(times[True]))
    speedup = t_cleared / t_warm
    emit(
        f"PERF — Algorithm 2 climb, warm ring cache vs cleared every round "
        f"(n=40, {len(vectors)} rounds, median CPU time of {RING_REPEATS})",
        [
            f"cleared: {t_cleared / len(vectors) * 1e3:7.3f} ms/round",
            f"warm   : {t_warm / len(vectors) * 1e3:7.3f} ms/round",
            f"speedup: {speedup:7.2f}x",
        ],
    )
    assert speedup >= 1.1


@pytest.mark.skipif(not _MULTICORE, reason="a parallel speed-up needs two cores")
def test_shared_sweep_keeps_pace_with_pickled(results_dir):
    """An identical-worlds sweep over shared-memory maps is at least half as
    fast as the pickled path.

    Record identity and zero leaked segments are pinned in
    tests/sim/test_shared_sweep.py.
    """
    config = SimulationConfig(
        n_sensors=10, duration_s=4.0, sensing_range_m=150.0, grid=GridConfig(cell_size_m=4.0)
    )
    points = [(config, {"point": i}) for i in range(4)]
    kwargs = dict(n_reps=2, seed=0, n_workers=2, seed_stride=0)
    t0 = time.perf_counter()
    pickled = parallel_sweep(points, ["fttt"], share_maps=False, **kwargs)
    t_pickled = time.perf_counter() - t0
    t0 = time.perf_counter()
    shared = parallel_sweep(points, ["fttt"], share_maps=True, chunksize=1, **kwargs)
    t_shared = time.perf_counter() - t0
    speedup = t_pickled / t_shared
    emit(
        "PERF — identical-worlds sweep (2 workers), pickled vs shared maps",
        [
            f"pickled: {t_pickled:6.2f} s",
            f"shared : {t_shared:6.2f} s",
            f"speedup: {speedup:6.2f}x",
        ],
    )
    assert [r.mean_error for r in shared] == [r.mean_error for r in pickled]
    assert owned_segment_names() == []
    assert speedup > 0.5
