"""Parallel execution of replicated sweeps.

Replications are embarrassingly parallel: each builds its own world from a
spawned seed and shares nothing.  This module fans sweep points out over a
``multiprocessing`` pool while keeping results **bit-identical** to the
serial path — every task carries its own explicitly-spawned seed, so the
schedule cannot affect the streams (the determinism rule the HPC guides
insist on).

Workers re-import ``repro`` (fork or spawn both work); tasks are coarse
(one full parameter point per task) so IPC overhead is negligible next to
the seconds-long tracking runs inside.  Workers share an on-disk face-map
cache when ``REPRO_FACE_CACHE_DIR`` is set (see :mod:`repro.geometry.cache`):
a deployment divided by one task is loaded, not rebuilt, by every other
task, and results are bit-identical either way.  Under ``fork`` the
parent's warm in-memory cache is also inherited copy-on-write.

With ``obs_dir`` set, the sweep runs under :func:`repro.obs.observe`:
every task carries the parent's ``observing`` flag, so a worker enables
the metrics registry whatever the start method, snapshots it per task,
and ships the snapshot back with the records; the parent merges every
snapshot and writes ``metrics.json`` + ``trace.jsonl`` into ``obs_dir``.
Pool workers drop any tracer a fork handed them, so only the parent
writes the trace — inline runs (``n_workers=1``) emit full per-round
events, pooled runs emit the ``sweep`` event only.  Any observed sweep,
with or without ``obs_dir``, leaves the process registry holding the
caller's metrics from before the sweep plus every task's snapshot.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

from repro.config import SimulationConfig
from repro.network.faults import FaultModel
from repro.obs import metrics as obs_metrics
from repro.obs import observe, set_tracer, trace_event, write_metrics
from repro.sim.experiments import SweepRecord, replicate_mean_error

__all__ = ["parallel_sweep", "recommended_workers"]


def recommended_workers(n_tasks: int) -> int:
    """A sane pool size: no more workers than tasks or cores.

    The ``REPRO_WORKERS`` environment variable overrides the core count —
    CI and users can pin the pool size without threading a parameter
    through every call site (still clamped to the task count; there is
    never a reason to fork more workers than tasks).
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None and env != "":
        try:
            forced = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        if forced < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {forced}")
        return max(1, min(n_tasks, forced))
    cores = os.cpu_count() or 1
    return max(1, min(n_tasks, cores))


def _pool_init(manifests: list[dict]) -> None:
    """Pool initializer, run once per worker process.

    Drops the tracer a forked worker inherits, so the parent alone writes
    the trace, and registers the parent's shared face-map manifests:
    every task's cache lookups then resolve against the published
    segments (zero-copy attach) before falling back to disk or a rebuild.
    """
    set_tracer(None)
    if manifests:
        from repro.geometry.shm import install_shared_face_maps

        install_shared_face_maps(manifests)


def _run_point(args: tuple) -> "tuple[list[SweepRecord], dict | None]":
    config_dict, tracker_names, n_reps, seed, params, deployment, faults, observing = args
    grid_cfg = config_dict.pop("grid")
    from repro.config import GridConfig

    # per-task metrics: reset before, snapshot after, so a reused worker
    # (or the inline path) reports each point exactly once
    if observing:
        obs_metrics.set_enabled(True)  # a spawned worker starts with it off
        obs_metrics.reset()
    config = SimulationConfig(**config_dict, grid=GridConfig(**grid_cfg))
    records = replicate_mean_error(
        config,
        tracker_names,
        n_reps=n_reps,
        seed=seed,
        deployment=deployment,
        params=params,
        faults=faults,
    )
    return records, obs_metrics.snapshot() if observing else None


def parallel_sweep(
    points: "Sequence[tuple[SimulationConfig, dict]]",
    tracker_names: Sequence[str],
    *,
    n_reps: int = 3,
    seed: int = 0,
    deployment: str = "random",
    n_workers: "int | None" = None,
    seed_stride: int = 1000,
    faults: "FaultModel | Sequence[FaultModel | None] | None" = None,
    obs_dir: "str | os.PathLike | None" = None,
    share_maps: bool = False,
    chunksize: "int | None" = None,
) -> list[SweepRecord]:
    """Run ``replicate_mean_error`` for every (config, params) point in a pool.

    Parameters
    ----------
    points : list of (config, params-dict) pairs; params tag the records.
    tracker_names : trackers evaluated at every point.
    n_reps / deployment : as in :func:`replicate_mean_error`.
    seed : base seed; point *i* uses ``seed + i * seed_stride`` — identical
        to a serial loop, so parallel and serial runs agree exactly.
    n_workers : pool size (default: min(cores, points), overridable via
        ``REPRO_WORKERS``); 1 = run inline (no pool, handy under coverage
        tools and debuggers).
    faults : optional fault model applied to every replication's batch
        stream (forwarded to :func:`replicate_mean_error`); a list or
        tuple instead assigns one model (or None) per point — the
        fault-campaign case, where each point injects a different model.
    obs_dir : when given, the sweep runs with :mod:`repro.obs` enabled
        (in workers too) and writes ``metrics.json`` — the merged
        registries of every task — plus ``trace.jsonl`` into this
        directory.  Results are bit-identical with or without it.  After
        any observed call the process registry holds the caller's prior
        metrics plus the merged sweep metrics.
    share_maps : prebuild the distinct face maps the tasks will need and
        publish them into ``multiprocessing.shared_memory``
        (:mod:`repro.geometry.shm`); pool workers attach zero-copy
        instead of rebuilding or unpickling.  Segments are unlinked in a
        ``finally`` (and belt-and-braces at interpreter exit), so crashes
        and KeyboardInterrupt cannot leak ``/dev/shm`` entries.  Results
        are bit-identical — the shared map is byte-for-byte the built
        map.  Most effective when points revisit the same worlds
        (``seed_stride=0`` campaigns); ignored for inline runs.
    chunksize : tasks handed to a worker per dispatch (``pool.map``
        chunking); the default keeps the pre-existing pool heuristic.
        Larger chunks amortize per-dispatch IPC for many-point sweeps.
    """
    if not points:
        raise ValueError("no sweep points given")
    if isinstance(faults, (list, tuple)):
        if len(faults) != len(points):
            raise ValueError(
                f"per-point faults need one entry per point: "
                f"{len(faults)} models for {len(points)} points"
            )
        per_point_faults = list(faults)
    else:
        per_point_faults = [faults] * len(points)
    obs_out = Path(obs_dir) if obs_dir is not None else None
    # tasks (inline ones included) reset the process registry, and so does
    # observe(): the caller's metrics are put back after the sweep
    caller_metrics = obs_metrics.snapshot() if obs_metrics.enabled() else {}
    with observe(trace_path=str(obs_out / "trace.jsonl")) if obs_out else nullcontext():
        observing = obs_metrics.enabled()
        tasks = [
            (
                {k: v for k, v in cfg.as_dict().items()},
                list(tracker_names),
                n_reps,
                seed + i * seed_stride,
                dict(params),
                deployment,
                per_point_faults[i],
                observing,
            )
            for i, (cfg, params) in enumerate(points)
        ]
        if n_workers is None:
            n_workers = recommended_workers(len(tasks))
        shared_set = None
        prebuild_metrics: dict = {}
        if share_maps and n_workers > 1:
            from repro.geometry.shm import SharedFaceMapSet
            from repro.sim.scenario import replication_scenarios

            if observing:
                # the prebuild's cache lookups belong to the sweep: count
                # them from zero (the caller's metrics come back at the end)
                obs_metrics.reset()
            shared_set = SharedFaceMapSet()
            seen_worlds: set = set()
            for i, (cfg, _params) in enumerate(points):
                task_seed = seed + i * seed_stride
                world_id = (id(cfg), task_seed)
                if world_id in seen_worlds:
                    continue
                seen_worlds.add(world_id)
                for scenario in replication_scenarios(
                    cfg, n_reps=n_reps, seed=task_seed, deployment=deployment
                ):
                    key = scenario.face_map_key()
                    if key not in shared_set:
                        # .face_map builds (or cache-loads) here, once, in
                        # the parent; workers only ever attach
                        shared_set.publish(key, scenario.face_map)
            if observing:
                prebuild_metrics = obs_metrics.snapshot()
        try:
            if n_workers == 1:
                nested = [_run_point(t) for t in tasks]
            else:
                ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
                manifests = shared_set.manifests() if shared_set is not None else []
                with ctx.Pool(
                    processes=n_workers, initializer=_pool_init, initargs=(manifests,)
                ) as pool:
                    nested = pool.map(_run_point, tasks, chunksize=chunksize)
        finally:
            if shared_set is not None:
                shared_set.close()
        records = [rec for group, _ in nested for rec in group]
        if observing:
            merged = obs_metrics.MetricsRegistry()
            merged.merge(prebuild_metrics)
            for _, snap in nested:
                merged.merge(snap)
            merged.counter("sweep.points").inc(len(tasks))
            merged.counter("sweep.records").inc(len(records))
            merged.counter("sweep.workers").inc(n_workers)
            # stable schema: cache counters always present, even at zero
            for name in (
                "geometry.cache.hits",
                "geometry.cache.misses",
                "geometry.cache.disk_hits",
                "geometry.cache.shm_hits",
                "geometry.cache.evictions",
            ):
                merged.counter(name)
            trace_event(
                "sweep",
                points=len(tasks),
                workers=n_workers,
                records=len(records),
                trackers=list(tracker_names),
            )
            if obs_out is not None:
                write_metrics(
                    obs_out / "metrics.json",
                    merged,
                    extra={
                        "sweep": {
                            "points": len(tasks),
                            "n_reps": n_reps,
                            "seed": seed,
                            "workers": n_workers,
                            "trackers": list(tracker_names),
                        }
                    },
                )
            # leave the caller's metrics plus the sweep's in the process
            # registry (the CLI prints them after the sweep returns)
            obs_metrics.reset()
            obs_metrics.registry().merge(caller_metrics)
            obs_metrics.registry().merge(merged.snapshot())
    return records
