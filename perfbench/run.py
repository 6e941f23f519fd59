"""FTTT benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-fttt --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (see
``perfbench/README.md``).  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details: the machine block, sample counts and set-up times.
"""

import time

_T_START = time.perf_counter()  # first statement: set-up time counts from here

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS/OpenMP thread everywhere: the default (one per core) moves
#: ``rounds_per_s`` by about a third and widens the spread within a run.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "round_p50_ms": "ms",
    "round_p95_ms": "ms",
    "rounds_per_s": "1/s",
    "build_s": "s",
    "mean_error_m": "m",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """Drop every ``REPRO_*`` override (observability, face-map cache and its
    directory and size, pool and build worker counts) and pin the BLAS and
    OpenMP pools.  Must run before numpy is imported."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    for name in _THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)


def stop_resource_tracker(owner_pid: int) -> None:
    """Stop and reap ``multiprocessing``'s resource tracker, if this process
    started one.  Publishing shared-memory face maps starts that helper
    process; left alone it outlives the benchmark by a few milliseconds."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if os.getpid() != owner_pid or tracker is None:
        return  # forked pool workers inherit the handler but do not own the tracker
    stop = getattr(tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _p95(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end(workload: str, seed: int, seconds: float, sizes, import_s: float) -> dict:
    """Untraced metrics.  Times are scaled to the reference host speed: by
    ``machine.NOMINAL_PROBE_MS`` over the run's median speed-probe time
    (see ``machine.SpeedProbe``); the unscaled values are in the details."""
    import machine
    import workloads

    out = workloads.run_parts(workload, seed, seconds, sizes)
    per_round_ms = [1e3 * s for s in out["per_round_s"]]
    raw = {
        "round_p50_ms": statistics.median(per_round_ms),
        "round_p95_ms": _p95(per_round_ms),
        "rounds_per_s": out["rounds_per_s"],
        "build_s": statistics.median(out["build_times_s"]),
        "mean_error_m": out["mean_error_m"],
        "setup_s": import_s + statistics.median(out["setup_times_s"]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    scale = machine.NOMINAL_PROBE_MS / out["info"]["speed_probe_ms"]
    values = dict(raw, rounds_per_s=raw["rounds_per_s"] / scale)
    for name in ("round_p50_ms", "round_p95_ms", "build_s", "setup_s"):
        values[name] = raw[name] * scale
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "details": {
            "unscaled": raw,
            "scale": scale,
            "samples": len(per_round_ms),
            "import_s": import_s,
            "setup_times_s": out["setup_times_s"],
            "build_times_s": out["build_times_s"],
            **out["info"],
        },
    }


def per_layer(workload: str, seed: int, sizes) -> dict:
    import layers

    work_dir = ROOT / ".perfbench-work"
    try:
        out = layers.traced_run(workload, seed, sizes, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = out["failed"] + (0 if out["identical"] else 1)
    return {
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": layers.UNITS[k]} for k, v in out["metrics"].items()
        },
        "details": {"traced_outputs_identical": out["identical"]},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, import_s: float = 0.0) -> dict:
    """One benchmark run; returns the result object plus its details."""
    import machine
    import workloads

    sizes = sizes or workloads.FULL
    cpu_before = machine.read_cpu_times()
    if trace:
        out = per_layer(workload, seed, sizes)
    else:
        out = end_to_end(workload, seed, seconds, sizes, import_s)
    out["details"]["machine"] = machine.machine_block(
        ROOT, machine.steal_share(cpu_before, machine.read_cpu_times())
    )
    out["details"].update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    return out


def main(argv=None) -> int:
    # registered before multiprocessing loads, so it runs after every exit
    # handler the program registers (shared-memory unlinks talk to the tracker)
    atexit.register(stop_resource_tracker, os.getpid())
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads  # numpy and repro load here, after pinning

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_s = time.perf_counter() - _T_START
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    print(json.dumps({"perfbench": out["details"]}, sort_keys=True))
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": out["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
