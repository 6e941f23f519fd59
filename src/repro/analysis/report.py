"""Reproduction report generator.

Collects the per-figure CSVs the benchmark harness writes under
``benchmarks/results/`` into one markdown report — the machine-written
companion to EXPERIMENTS.md.  Exposed as ``fttt report``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ResultFile", "collect_results", "render_report", "write_report"]

# figure id -> (title, one-line shape claim) for everything the harness emits
KNOWN_RESULTS: dict[str, tuple[str, str]] = {
    "fig03": ("Fig. 3 — face structure vs uncertainty", "certain faces shrink, then vanish"),
    "fig10_grid": ("Fig. 10(a,b) — example trace, grid deployment", "FTTT hugs the trace at least as tightly as PM"),
    "fig10_random": ("Fig. 10(c,d) — example trace, random deployment", "FTTT hugs the trace at least as tightly as PM"),
    "fig11a": ("Fig. 11(a) — dynamic error time series", "FTTT below the baselines along the run"),
    "fig11bc": ("Fig. 11(b,c) — error vs sensor count", "FTTT < PM, Direct MLE; error falls with n"),
    "fig12a": ("Fig. 12(a) — error vs sensing resolution", "error grows with eps below n=20, flat above"),
    "fig12b": ("Fig. 12(b) — error vs sampling times", "larger k, lower error"),
    "fig12cd": ("Fig. 12(c,d) — basic vs extended FTTT", "same mean, smaller deviation"),
    "fig13_basic": ("Fig. 13(c) — outdoor, basic FTTT", "tracks the walker"),
    "fig13_extended": ("Fig. 13(d) — outdoor, extended FTTT", "smoother than basic"),
    "table1": ("Table 1 — system parameters", "encoded verbatim"),
    "sec51": ("§5.1 — required sampling times", "k=16 at 20 sensors / 99%"),
    "sec52_interface": ("§5.2 — inter-face error expectation", "E_N = N·f, Monte-Carlo confirmed"),
    "alg1_scaling": ("Algorithm 1 — vector construction scaling", "O(n^2·k)"),
    "alg2_matching": ("Algorithm 2 — heuristic vs exhaustive", "fraction of the visits, same accuracy"),
    "fault_tolerance": ("§4.4-3 — fault-tolerance ablation", "Eq. 6/7 beats naive zeroing"),
    "ablation_c": ("Ablation — uncertainty-constant calibration", "calibrated C beats Eq. 3 verbatim"),
    "ablation_hops": ("Ablation — matcher hops", "2-hop ≈ exhaustive"),
    "ablation_soft": ("Ablation — soft signatures", "soft beats hard for extended vectors"),
    "ablation_noise": ("Ablation — noise structure", "temporal correlation hurts; common-mode cancels"),
    "density_tradeoff": ("§5.2 — density trade-off", "accuracy up, lifetime down"),
    "tracker_field": ("Extended tracker field", "FTTT leads the model-free spectrum"),
    "duty_cycle": ("Duty-cycling extension", "sensor-rounds saved at ~no error cost"),
}


@dataclass(frozen=True)
class ResultFile:
    """One regenerated result series."""

    result_id: str
    path: Path
    header: list[str]
    rows: list[list[str]]

    @property
    def title(self) -> str:
        return KNOWN_RESULTS.get(self.result_id, (self.result_id, ""))[0]

    @property
    def claim(self) -> str:
        return KNOWN_RESULTS.get(self.result_id, ("", ""))[1]


def collect_results(results_dir: "str | Path") -> list[ResultFile]:
    """Load every CSV the benchmark harness wrote, sorted by id."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(
            f"no results directory at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    out = []
    for path in sorted(results_dir.glob("*.csv")):
        with path.open() as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
        if not rows:
            continue
        out.append(
            ResultFile(result_id=path.stem, path=path, header=rows[0], rows=rows[1:])
        )
    return out


def render_report(results: "list[ResultFile]") -> str:
    """Markdown report: one section per regenerated figure."""
    lines = [
        "# Reproduction report",
        "",
        "Auto-generated from `benchmarks/results/`; regenerate with",
        "`pytest benchmarks/ --benchmark-only` followed by `fttt report`.",
        "",
        f"Results collected: {len(results)}",
        "",
    ]
    for res in results:
        lines.append(f"## {res.title}")
        if res.claim:
            lines.append(f"*Shape claim: {res.claim}.*")
        lines.append("")
        lines.append("| " + " | ".join(res.header) + " |")
        lines.append("|" + "---|" * len(res.header))
        for row in res.rows[:12]:
            lines.append("| " + " | ".join(row) + " |")
        if len(res.rows) > 12:
            lines.append(f"| … ({len(res.rows) - 12} more rows in {res.path.name}) |")
        lines.append("")
    return "\n".join(lines)


def write_report(results_dir: "str | Path", out_path: "str | Path") -> Path:
    """Collect, render, and write the report; returns the path written."""
    results = collect_results(results_dir)
    if not results:
        raise FileNotFoundError(f"no result CSVs found under {results_dir}")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(render_report(results))
    return out_path
