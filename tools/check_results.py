#!/usr/bin/env python
"""Check that the committed benchmark CSVs are what the benchmarks produce.

Usage::

    PYTHONPATH=src python tools/check_results.py

Copies ``benchmarks/`` into a temporary directory, reruns every benchmark
there except the microbenchmarks of ``test_perf_kernels.py`` (the copy
writes its own ``results/``, so the working tree is left as it is), and
compares each regenerated CSV with the committed one.  Cells that time
the machine rather than the model are declared in :data:`TIMING_CELLS`
and skipped; every other cell must match byte for byte.  It also renders
``REPORT.md`` with :func:`repro.analysis.report.write_report` from the
committed CSVs and compares it with the committed report.  Exits non-zero
when a benchmark fails its own asserts, a committed CSV is missing from
the rerun or differs from it, the rerun writes a CSV that is not
committed, or the committed report is not what the CSVs render to.
"""

from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis.report import write_report

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"
SKIPPED = ("test_perf_kernels.py",)

# wall-clock cells: whole columns by header name, or whole rows by first cell
TIMING_CELLS = {
    "alg1_scaling.csv": {"columns": {"us"}},
    "throughput.csv": {"columns": {"rounds_per_s"}},
    "alg2_matching.csv": {"rows": {"wall_clock_ms"}},
}


def _masked(name: str, text: str) -> list[list[str]]:
    """The CSV's rows with its declared timing cells blanked."""
    rows = list(csv.reader(text.splitlines()))
    timing = TIMING_CELLS.get(name, {})
    header = rows[0] if rows else []
    cols = {i for i, h in enumerate(header) if h in timing.get("columns", ())}
    out = [header]
    for row in rows[1:]:
        if row and row[0] in timing.get("rows", ()):
            row = row[:1] + ["*"] * (len(row) - 1)
        out.append(["*" if i in cols else cell for i, cell in enumerate(row)])
    return out


def compare(committed: Path, rerun: Path) -> list[str]:
    """Human-readable problems between two results directories."""
    old = {p.name: p.read_text() for p in committed.glob("*.csv")}
    new = {p.name: p.read_text() for p in rerun.glob("*.csv")}
    problems = [f"{n}: committed but not regenerated" for n in sorted(old.keys() - new.keys())]
    problems += [f"{n}: regenerated but not committed" for n in sorted(new.keys() - old.keys())]
    for name in sorted(old.keys() & new.keys()):
        a, b = _masked(name, old[name]), _masked(name, new[name])
        if old[name] == new[name] or (name in TIMING_CELLS and a == b):
            continue
        if a == b:
            problems.append(f"{name}: differs from the rerun in whitespace or line endings")
            continue
        line = next((i for i, (ra, rb) in enumerate(zip(a, b)) if ra != rb), min(len(a), len(b)))
        ra = a[line] if line < len(a) else "<end of file>"
        rb = b[line] if line < len(b) else "<end of file>"
        problems.append(f"{name} line {line + 1}: committed {ra} != rerun {rb}")
    return problems


def report_problems(results: Path, scratch: Path) -> list[str]:
    """The committed ``REPORT.md`` against ``write_report`` on the committed CSVs.

    *scratch* is a directory the fresh report may be written to.
    """
    committed = results / "REPORT.md"
    if not committed.exists():
        return ["REPORT.md: not committed"]
    old_text = committed.read_text()
    new_text = write_report(results, scratch / "REPORT.md").read_text()
    if old_text == new_text:
        return []
    old, new = old_text.splitlines(), new_text.splitlines()
    if old == new:
        return ["REPORT.md: differs from write_report in whitespace or line endings"]
    line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    a = repr(old[line]) if line < len(old) else "<end of file>"
    b = repr(new[line]) if line < len(new) else "<end of file>"
    return [f"REPORT.md line {line + 1}: committed {a} != write_report {b}"]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="check-results-") as tmp:
        work = Path(tmp) / "benchmarks"
        shutil.copytree(
            BENCHMARKS, work, ignore=shutil.ignore_patterns("__pycache__", "results")
        )
        tests = sorted(p.name for p in work.glob("test_*.py") if p.name not in SKIPPED)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        cmd.append("--benchmark-disable")
        status = subprocess.run([*cmd, *tests], cwd=work, env=env).returncode
        problems = compare(BENCHMARKS / "results", work / "results")
        problems += report_problems(BENCHMARKS / "results", Path(tmp))
    for line in problems:
        print(f"STALE {line}")
    if status != 0:
        print(f"benchmark run failed (pytest exit {status})")
    if problems or status != 0:
        return 1
    print("committed results match a fresh benchmark run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
