"""The traced run: per-layer numbers from wrappers around each layer's calls.

:class:`Probe` replaces a handful of public functions and methods with
timing wrappers for the duration of a ``with`` block and puts every
original back on exit.  Nothing inside ``repro`` changes: the wrappers
sit at the boundaries the benchmark's own calls cross (tracker round,
Algorithm 1 vectors, Algorithm 2 climb, ``FaceMap`` scan and batched
match, face-map build and classification, batch generation, shared-map
publishing, the sweep pool).  Each record goes to the probe's own totals
and, when ``repro.obs`` is on, to an ``obs`` histogram named
``perfbench.<name>`` too; that is how records made inside campaign pool
workers (which fork with the wrappers in place) reach the parent, through
the sweep's merged ``metrics.json``.

The program's own ``repro.obs`` counters supply the exact counts:
hill-climb fallbacks, cache hits and misses, degradation decisions.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import shutil
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.core.heuristic import HeuristicMatcher
from repro.core.tracker import FTTTracker
from repro.geometry import cache as geometry_cache
from repro.geometry import faces as geometry_faces
from repro.geometry.faces import FaceMap
from repro.geometry.shm import SharedFaceMapSet
from repro.obs import metrics as obs
from repro.sim import parallel as sim_parallel
from repro.sim import runner

import workloads

#: (owner, attribute) pairs the probe replaces; the self-test checks that
#: every one is the original again after the probe exits.
PATCHED = (
    (FTTTracker, "localize"),
    (FTTTracker, "build_vector"),
    (FTTTracker, "build_vectors"),
    (FTTTracker, "track"),
    (HeuristicMatcher, "match"),
    (FaceMap, "match"),
    (FaceMap, "match_many"),
    (geometry_cache, "build_face_map"),
    (geometry_faces, "classify_points_pairwise"),
    (runner, "generate_batches"),
    (SharedFaceMapSet, "publish"),
    (sim_parallel, "mp"),
)


class Probe:
    """Install the layer wrappers; collect ``{name: [sum, count]}`` records."""

    def __init__(self) -> None:
        self.totals: "defaultdict[str, list]" = defaultdict(lambda: [0.0, 0])
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        entry = self.totals[name]
        entry[0] += value
        entry[1] += 1
        if obs.enabled():
            obs.histogram("perfbench." + name).observe(value)

    def take(self) -> dict:
        """Records so far, then start afresh."""
        out = {k: tuple(v) for k, v in self.totals.items()}
        self.totals.clear()
        return out

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            probe.add(name, time.perf_counter() - t0)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _after_localize(self, args, est) -> None:
        self.add("visited", est.visited_faces)

    def _after_vectors(self, args, vectors) -> None:
        self.add("masked_pairs", float(np.isnan(vectors).sum()))
        self.add("pairs", float(vectors.size))

    def _after_scan(self, args, out) -> None:
        fm, (ties, _best) = args[0], out
        self.add("scan_ties", len(ties))
        self.add("scan_bytes", 4.0 * fm.n_faces * fm.n_pairs)

    def _after_match_many(self, args, out) -> None:
        fm, vectors = args[0], np.asarray(args[1], dtype=np.float32)
        for ties in out[0]:
            self.add("batch_ties", len(ties))
        # one (B,P)x(P,F) GEMM, plus the masked-energy GEMM when any pair is *
        gemms = 2 if np.isnan(vectors).any() else 1
        self.add("gemm_flop", 2.0 * gemms * vectors.shape[0] * fm.n_pairs * fm.n_faces)

    def _after_generate(self, args, batches) -> None:
        self.add("generated_rounds", len(batches))

    def _after_build(self, args, fm) -> None:
        self.add("build_cells", len(fm.cell_face))
        self.add("build_faces", fm.n_faces)

    def _track(self, fn):
        """``FTTTracker.track``: counts the rounds of the batched path only
        (the per-round path is already counted by ``localize``)."""
        probe = self

        @functools.wraps(fn)
        def wrapper(tracker, batches):
            before = probe.totals["round"][1]
            t0 = time.perf_counter()
            result = fn(tracker, batches)
            dt = time.perf_counter() - t0
            if probe.totals["round"][1] == before:
                probe.add("batched_call", dt)
                for est in result.estimates:
                    probe.add("batched_round", 1)
                    probe.add("visited", est.visited_faces)
            return result

        return wrapper

    def _pool_module(self):
        """A stand-in for ``multiprocessing`` in ``repro.sim.parallel`` whose
        pools record their lifetime (start, map, shutdown) as ``pool``."""
        probe = self

        class TimedPool:
            def __init__(self, pool, t0):
                self._pool, self._t0 = pool, t0

            def __enter__(self):
                return self._pool.__enter__()

            def __exit__(self, *exc):
                out = self._pool.__exit__(*exc)
                probe.add("pool", time.perf_counter() - self._t0)
                return out

        class TimedContext:
            def __init__(self, ctx):
                self._ctx = ctx

            def Pool(self, *args, **kwargs):
                t0 = time.perf_counter()
                return TimedPool(self._ctx.Pool(*args, **kwargs), t0)

        return types.SimpleNamespace(
            get_context=lambda method=None: TimedContext(multiprocessing.get_context(method)),
            get_all_start_methods=multiprocessing.get_all_start_methods,
        )

    def __enter__(self) -> "Probe":
        wrappers = {
            (FTTTracker, "localize"): lambda f: self._timed("round", f, self._after_localize),
            (FTTTracker, "build_vector"): lambda f: self._timed("vectors", f, self._after_vectors),
            (FTTTracker, "build_vectors"): lambda f: self._timed("vectors", f, self._after_vectors),
            (FTTTracker, "track"): self._track,
            (HeuristicMatcher, "match"): lambda f: self._timed("heuristic", f),
            (FaceMap, "match"): lambda f: self._timed("scan", f, self._after_scan),
            (FaceMap, "match_many"): lambda f: self._timed("match_many", f, self._after_match_many),
            (geometry_cache, "build_face_map"): lambda f: self._timed("build", f, self._after_build),
            (geometry_faces, "classify_points_pairwise"): lambda f: self._timed("classify", f),
            (runner, "generate_batches"): lambda f: self._timed("generate", f, self._after_generate),
            (SharedFaceMapSet, "publish"): lambda f: self._timed("publish", f),
            (sim_parallel, "mp"): lambda f: self._pool_module(),
        }
        try:
            for owner, attr in PATCHED:
                original = vars(owner)[attr]
                setattr(owner, attr, wrappers[(owner, attr)](original))
                self._undo.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------


def _sum(rec: dict, name: str) -> float:
    return float(rec.get(name, (0.0, 0))[0])


def _count(rec: dict, name: str) -> int:
    return int(rec.get(name, (0.0, 0))[1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter(snapshot: dict, name: str) -> int:
    return int(snapshot.get(name, {}).get("value", 0))


def layer_metrics(rec: dict, counters: dict, traced_ratio: float) -> dict:
    """Per-layer metrics from probe records and ``repro.obs`` counters.

    Times are per localized round, so on the tracking workloads
    ``vectors.ms + heuristic.climb_ms + faces.scan_ms + faces.match_many_ms
    + tracker.other_ms`` is ``tracker.round_ms``, the traced round.
    """
    rounds = _count(rec, "round") + _count(rec, "batched_round")
    round_s = _sum(rec, "round") + _sum(rec, "batched_call")
    vectors_s = _sum(rec, "vectors")
    scan_s = _sum(rec, "scan")
    climb_s = _sum(rec, "heuristic") - scan_s if _count(rec, "heuristic") else 0.0
    many_s = _sum(rec, "match_many")
    per_round_ms = lambda seconds: 1e3 * _ratio(seconds, rounds)  # noqa: E731
    builds = _count(rec, "build")
    cells = _ratio(_sum(rec, "build_cells"), builds)
    faces = _ratio(_sum(rec, "build_faces"), builds)
    generated = _sum(rec, "generated_rounds")
    campaigns = _count(rec, "pool")
    return {
        "heuristic.fallback_rate": _ratio(
            _counter(counters, "core.heuristic.fallbacks"), _counter(counters, "core.heuristic.rounds")
        ),
        "heuristic.climb_ms": per_round_ms(climb_s),
        "heuristic.faces_visited": _ratio(_sum(rec, "visited"), _count(rec, "visited")),
        "faces.scan_ms": per_round_ms(scan_s),
        "faces.scan_mb_computed": 1e-6 * _ratio(_sum(rec, "scan_bytes"), rounds),
        "faces.ties": _ratio(
            _sum(rec, "scan_ties") + _sum(rec, "batch_ties"),
            _count(rec, "scan_ties") + _count(rec, "batch_ties"),
        ),
        "faces.match_many_ms": per_round_ms(many_s),
        "faces.gemm_gflop_computed": 1e-9 * _ratio(_sum(rec, "gemm_flop"), rounds),
        "vectors.ms": per_round_ms(vectors_s),
        "vectors.masked_fraction": _ratio(_sum(rec, "masked_pairs"), _sum(rec, "pairs")),
        "tracker.round_ms": per_round_ms(round_s),
        "tracker.other_ms": per_round_ms(round_s - vectors_s - climb_s - scan_s - many_s),
        "build.classify_s": _ratio(_sum(rec, "classify"), builds),
        "build.assemble_s": _ratio(_sum(rec, "build") - _sum(rec, "classify"), builds),
        "build.cells": cells,
        "build.faces": faces,
        "build.faces_per_cell": _ratio(faces, cells),
        "runner.generate_ms": 1e3 * _ratio(_sum(rec, "generate"), generated),
        "shm.publish_s": _ratio(_sum(rec, "publish"), campaigns),
        "parallel.pool_s": _ratio(_sum(rec, "pool"), campaigns),
        "cache.hits": _counter(counters, "geometry.cache.hits"),
        "cache.misses": _counter(counters, "geometry.cache.misses"),
        "cache.shm_hits": _counter(counters, "geometry.cache.shm_hits"),
        "degradation.suppression_rounds": _counter(counters, "tracker.degradation.suppression_rounds"),
        "degradation.quorum_fallbacks": _counter(counters, "tracker.degradation.quorum_fallbacks"),
        "degradation.tie_breaks": _counter(counters, "tracker.degradation.tie_breaks"),
        "obs.traced_ratio": traced_ratio,
    }


UNITS = {
    "heuristic.fallback_rate": "ratio",
    "heuristic.climb_ms": "ms",
    "heuristic.faces_visited": "count",
    "faces.scan_ms": "ms",
    "faces.scan_mb_computed": "MB",
    "faces.ties": "count",
    "faces.match_many_ms": "ms",
    "faces.gemm_gflop_computed": "GFLOP",
    "vectors.ms": "ms",
    "vectors.masked_fraction": "ratio",
    "tracker.round_ms": "ms",
    "tracker.other_ms": "ms",
    "build.classify_s": "s",
    "build.assemble_s": "s",
    "build.cells": "count",
    "build.faces": "count",
    "build.faces_per_cell": "ratio",
    "runner.generate_ms": "ms",
    "shm.publish_s": "s",
    "parallel.pool_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.shm_hits": "count",
    "degradation.suppression_rounds": "count",
    "degradation.quorum_fallbacks": "count",
    "degradation.tie_breaks": "count",
    "obs.traced_ratio": "ratio",
}


# -- traced runs -------------------------------------------------------------------


_SETUP_RECORDS = ("build", "build_cells", "build_faces", "classify")
_GENERATE_RECORDS = ("generate", "generated_rounds")


def _merge_worker_records(rec: dict, counters: dict) -> None:
    """Add the records campaign pool workers sent back as ``perfbench.*``
    histograms in the sweep's merged metrics."""
    for name, data in counters.items():
        if name.startswith("perfbench.") and data.get("type") == "histogram":
            key = name[len("perfbench.") :]
            total, count = rec.get(key, (0.0, 0))
            rec[key] = (total + float(data["sum"]), count + int(data["count"]))


def _one_pass(workload: str, setup, sizes, out_dir: "Path | None" = None):
    if workload == "faultlab-campaign":
        return workloads.measure_campaign(setup, 0.0, sizes, out_dir=out_dir)
    return workloads.MEASURES[workload](setup, 0.0, sizes)


def traced_run(workload: str, seed: int, sizes, work_dir: Path) -> dict:
    """Per-layer metrics of one fixed pass (one campaign) over the inputs of
    part 0 of *seed*.

    Four passes run in the order untraced, traced, traced, untraced, so a
    steady drift of machine speed cancels out of ``obs.traced_ratio``; the
    untraced passes use a set-up made without the probe, then the traced
    one.  Layer records and counters come from the first traced pass, so
    exact counts repeat from run to run.  Every pass must reproduce the
    first one's outputs bit for bit.
    """
    plain, _ = workloads.one_setup(workload, seed, sizes)
    passes = [_one_pass(workload, plain, sizes)]
    plain = None  # two n=100 maps at once would double the peak memory
    out_dir = work_dir / "traced-pass"
    obs.reset()
    obs.set_enabled(True)
    try:
        with Probe() as probe:
            setup, _ = workloads.one_setup(workload, seed, sizes)
            setup_rec = probe.take()
            obs.reset()
            passes.append(_one_pass(workload, setup, sizes, out_dir))
            rec = probe.take()
            if workload == "faultlab-campaign":
                counters = json.loads((out_dir / "metrics.json").read_text())["metrics"]
                _merge_worker_records(rec, counters)
            else:
                counters = obs.snapshot()
            passes.append(_one_pass(workload, setup, sizes))
    finally:
        obs.set_enabled(None)
        obs.reset()
        shutil.rmtree(out_dir, ignore_errors=True)
    passes.append(_one_pass(workload, setup, sizes))
    for name in _SETUP_RECORDS + (_GENERATE_RECORDS if workload != "faultlab-campaign" else ()):
        rec.pop(name, None)
        if name in setup_rec:
            rec[name] = setup_rec[name]
    failed = sum(p.failed for p in passes)
    if workload == "replay-batched":
        failed += workloads.rematch_failures(setup, passes[1].outputs, sizes)
    untraced = statistics.median(passes[0].per_round_s + passes[3].per_round_s)
    traced = statistics.median(passes[1].per_round_s + passes[2].per_round_s)
    return {
        "metrics": layer_metrics(rec, counters, traced / untraced),
        "identical": all(workloads.same_outputs(p.outputs, passes[0].outputs) for p in passes[1:]),
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
    }
