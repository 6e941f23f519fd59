"""The machine block: what a result was measured on, readable without a rerun."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def read_cpu_times() -> "tuple[int, int]":
    """(steal, total) jiffies of all CPUs from ``/proc/stat`` ((0, 0) where absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    values = [int(x) for x in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


def steal_share(before: "tuple[int, int]", after: "tuple[int, int]") -> float:
    """Share of CPU time stolen by other tenants between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


#: Speed-probe time, in ms, of the reference host speed that untraced
#: times are scaled to (the 2-vCPU Xeon this benchmark was tuned on runs
#: the probe in 4-8 ms, depending on what other tenants do).
NOMINAL_PROBE_MS = 4.0


class SpeedProbe:
    """Times a fixed reference kernel between the benchmark's timed operations.

    The program never runs the kernel — a plain Python loop plus a numpy
    pass over a fixed 8 MB array — so its time follows only how fast the
    host runs at that moment.  On a shared host that speed drifts by a
    fifth or more over tens of seconds as other tenants come and go;
    dividing the run's times by the probe's median time removes most of
    that drift.  The kernel is timed in thread CPU time, so a preemption
    while it runs (pool workers still exiting, say) does not count.
    """

    def __init__(self, every_s: float = 0.25) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((2000, 1000)).astype(np.float32)
        self._v = self._a[0].copy()
        self.every_s = every_s
        self.samples: list = []
        self._next = 0.0

    def sample(self) -> float:
        import numpy as np

        t0 = time.thread_time()
        x = 0
        for i in range(20_000):
            x += i * i
        d = self._a - self._v
        np.einsum("fp,fp->f", d, d)
        dt = time.thread_time() - t0
        self.samples.append(dt)
        return dt

    def maybe(self) -> None:
        """Call after each timed operation: takes one sample per ``every_s``
        elapsed since the last ones (at most 8), so that long operations
        weigh as much as many short ones."""
        now = time.perf_counter()
        if now < self._next:
            return
        for _ in range(min(8, 1 + int((now - self._next) / self.every_s))):
            self.sample()
        self._next = time.perf_counter() + self.every_s

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples) if self.samples else float("nan")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> "int | None":
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(root: Path, *args: str) -> "str | None":
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def machine_block(root: Path, steal: float) -> dict:
    """nproc, CPU, BLAS, numpy/Python versions, git sha + dirty flag, steal share."""
    import numpy as np

    blas: dict = {"threads": _blas_threads()}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas["name"] = info.get("name")
        blas["version"] = info.get("version")
    except (TypeError, AttributeError):  # numpy without dict-mode show_config
        blas["name"] = blas["version"] = None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha is not None else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": blas,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "steal_share": steal,
    }
