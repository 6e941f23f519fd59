"""Command-line interface: regenerate any experiment as a text table.

    fttt list                         # what can be regenerated
    fttt fig11 --reps 3 --out results/
    fttt fig12a --quick
    fttt outdoor
    fttt sampling-times --sensors 20 --confidence 0.99
    fttt stats paper-baseline         # run a preset under repro.obs, print metrics
    fttt run sparse --stats --obs-out obs/

Every experiment prints the series the corresponding paper figure plots;
``fig11``, ``fig12b`` and ``fig12cd`` also take ``--out DIR`` and write
their records there as CSV.  Each command accepts only the options it
reads.
``--stats`` runs a figure command or ``run`` under :mod:`repro.obs` and
prints the metrics table afterwards; ``--obs-out DIR`` additionally
writes ``metrics.json`` + ``trace.jsonl``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.metrics import format_table
from repro.analysis.sampling_times import all_flips_probability, required_sampling_times
from repro.config import GridConfig, SimulationConfig
from repro.sim.experiments import (
    sweep_basic_vs_extended,
    sweep_n_sensors,
    sweep_resolution,
    sweep_sampling_times,
)
from repro.sim.io import records_to_csv

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "fig3": "face structure vs uncertainty: certain faces shrink, then vanish",
    "fig10": "example tracking traces, FTTT vs PM (grid & random deployment)",
    "fig11": "mean error and std vs number of sensors (FTTT / PM / Direct MLE)",
    "fig12a": "error vs sensing resolution (model-mode; physical mode printed too)",
    "fig12b": "error vs sensors for sampling times k in {3,5,7,9}",
    "fig12cd": "basic vs extended FTTT mean error and std",
    "fig13": "outdoor acoustic testbed simulation (basic & extended FTTT)",
    "sampling-times": "required grouping-sampling count (paper §5.1)",
    "ablations": "design-choice ablations: C calibration, matcher hops, soft signatures, noise structure",
    "density": "the §5.2 density trade-off: accuracy vs relay load / lifetime",
    "faultlab": "fault-injection campaign: robustness curves per fault family x intensity",
    "fuzz": "differential fuzzing: optimized kernels vs the oracle tier",
}


def _base_config(args: argparse.Namespace) -> SimulationConfig:
    cell = 4.0 if args.quick else 2.0
    duration = 20.0 if args.quick else 60.0
    return SimulationConfig(duration_s=duration, grid=GridConfig(cell_size_m=cell))


def _emit(records, args, name: str) -> None:
    if args.out:
        path = records_to_csv(records, Path(args.out) / f"{name}.csv")
        print(f"\nwrote {path}")


def cmd_list(args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for name, desc in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {desc}")
    return 0


def cmd_fig11(args: argparse.Namespace) -> int:
    n_values = [5, 10, 15, 20, 25, 30, 35, 40] if not args.quick else [5, 10, 20]
    recs = sweep_n_sensors(
        n_values,
        ["fttt", "pm", "direct-mle"],
        base_config=_base_config(args),
        n_reps=args.reps,
        seed=args.seed,
    )
    rows = {}
    for r in recs:
        rows[f'{r.tracker}@n={r.params["n_sensors"]}'] = [r.mean_error, r.std_error]
    print(format_table(rows, header=["mean", "std"], title="Fig. 11(b,c): error vs sensors"))
    _emit(recs, args, "fig11")
    return 0


def cmd_fig12a(args: argparse.Namespace) -> int:
    from repro.sim.figures import fig12a_series

    eps_values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0] if not args.quick else [0.5, 3.0]
    n_values = [10, 15, 20, 25] if not args.quick else [10]
    rep_seeds = [args.seed + 31 * rep for rep in range(args.reps)]
    table = fig12a_series(eps_values, n_values, rep_seeds=rep_seeds)
    rows = {
        f"n={n},eps={eps}": [table[n][i]]
        for n in n_values
        for i, eps in enumerate(eps_values)
    }
    print(format_table(rows, header=["mean"], title="Fig. 12(a): error vs resolution (model mode)"))
    recs = sweep_resolution(
        eps_values[:2], n_values[:1], base_config=_base_config(args), n_reps=min(args.reps, 2), seed=args.seed
    )
    rows2 = {f'physical eps={r.params["resolution_dbm"]}': [r.mean_error, r.std_error] for r in recs}
    print()
    print(format_table(rows2, header=["mean", "std"], title="physical channel (documented: eps is second-order)"))
    return 0


def cmd_fig12b(args: argparse.Namespace) -> int:
    k_values = [3, 5, 7, 9] if not args.quick else [3, 9]
    n_values = [10, 20, 30, 40] if not args.quick else [10]
    recs = sweep_sampling_times(
        k_values, n_values, base_config=_base_config(args), n_reps=args.reps, seed=args.seed
    )
    rows = {
        f'k={r.params["sampling_times"]},n={r.params["n_sensors"]}': [r.mean_error, r.std_error]
        for r in recs
    }
    print(format_table(rows, header=["mean", "std"], title="Fig. 12(b): error vs sampling times"))
    _emit(recs, args, "fig12b")
    return 0


def cmd_fig12cd(args: argparse.Namespace) -> int:
    n_values = [10, 15, 20, 25, 30] if not args.quick else [10]
    recs = sweep_basic_vs_extended(
        n_values, base_config=_base_config(args), n_reps=args.reps, seed=args.seed
    )
    rows = {
        f'{r.tracker}@n={r.params["n_sensors"]}': [r.mean_error, r.std_error] for r in recs
    }
    print(format_table(rows, header=["mean", "std"], title="Fig. 12(c,d): basic vs extended FTTT"))
    _emit(recs, args, "fig12cd")
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import compare_trackers, summarize_errors
    from repro.sim.runner import run_all_trackers
    from repro.sim.scenario import make_scenario

    cfg = _base_config(args).with_(n_sensors=10)
    for deployment in ("grid", "random"):
        scenario = make_scenario(cfg, deployment=deployment, seed=args.seed)
        results = run_all_trackers(scenario, ["fttt", "pm"], args.seed + 1)
        print(f"\ndeployment = {deployment}")
        print(format_table(compare_trackers(results)))
        if args.trace:
            res = results["fttt"]
            for t, est, tru in zip(res.times, res.positions, res.truth):
                print(f"  t={t:6.2f}  est=({est[0]:6.2f},{est[1]:6.2f})  true=({tru[0]:6.2f},{tru[1]:6.2f})")
    return 0


def cmd_fig13(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import summarize_errors
    from repro.testbed.outdoor import build_outdoor_system

    system = build_outdoor_system(seed=args.seed)
    rows = {}
    for mode in ("basic", "extended"):
        res = system.run(mode=mode, rng=args.seed + 1)
        s = summarize_errors(res)
        rows[mode] = s
    print(format_table(rows, title="Fig. 13: outdoor testbed simulation (9 IRIS motes, '+' deployment)"))
    print(f"gateway frame-loss rate: {system.gateway.loss_rate:.3f}")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    from repro.geometry.faces import build_certain_face_map, build_face_map
    from repro.geometry.grid import Grid
    from repro.network.deployment import grid_deployment

    nodes = grid_deployment(4, 100.0, margin_frac=0.3)
    grid = Grid.square(100.0, 2.0 if args.quick else 1.0)
    certain = build_certain_face_map(nodes, grid)
    print(f"(a) bisector-only division: {certain.n_faces} faces")
    print("(b,c) uncertain-boundary division:")
    for c in (1.05, 1.1, 1.2, 1.4, 1.8, 2.5):
        fm = build_face_map(nodes, grid, c)
        print(
            f"  C={c:4.2f}: {fm.n_faces:4d} faces, {fm.n_certain_faces:3d} all-certain, "
            f"uncertain-area fraction {(fm.signatures[fm.cell_face] == 0).mean():.3f}"
        )
    return 0


def cmd_ablations(args: argparse.Namespace) -> int:
    from repro.sim.ablations import (
        ablate_matcher_hops,
        ablate_noise_structure,
        ablate_soft_signatures,
        ablate_uncertainty_constant,
    )

    cfg = _base_config(args)
    studies = {
        "uncertainty constant (Eq.3 vs calibrated)": ablate_uncertainty_constant,
        "matcher (1-hop / 2-hop / exhaustive)": ablate_matcher_hops,
        "extended signatures (hard vs soft)": ablate_soft_signatures,
        "noise structure (iid / temporal / common-mode)": ablate_noise_structure,
    }
    for title, fn in studies.items():
        out = fn(cfg, n_reps=args.reps, seed=args.seed)
        keys = [k for k in out if not k.endswith("/std")]
        rows = {k: [out[k], out[k + "/std"]] for k in keys}
        print()
        print(format_table(rows, header=["mean", "std"], title=title))
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import density_tradeoff

    rows = density_tradeoff([5, 10, 20, 40], 100.0, 40.0, seed=args.seed)
    print("   n  hearing  2-cov  max-relay  lifetime  disconnected")
    for r in rows:
        print(
            f"{r['n_sensors']:4d}  {r['mean_hearing']:7.2f}  {r['two_coverage']:5.2f}  "
            f"{r['max_relay_load']:9d}  {r['lifetime_rounds']:8.0f}  {r['disconnected']:12d}"
        )
    return 0


def cmd_faultlab(args: argparse.Namespace) -> int:
    from repro.faultlab.campaign import campaign_config, run_campaign

    families = args.families
    trackers = args.trackers
    out = Path(args.out)
    result = run_campaign(
        families,
        args.intensities,
        trackers,
        config=campaign_config(quick=args.quick),
        n_reps=args.reps,
        seed=args.seed,
        out_dir=out,
        n_workers=args.workers,
    )
    for family in families:
        rows = {}
        for tracker in trackers:
            for r in result.curve(family, tracker):
                rows[f'{tracker}@{r.params["intensity"]:.2f}'] = [
                    r.mean_error,
                    r.p95_error,
                    r.lost_track_rate,
                ]
        print()
        print(
            format_table(
                rows,
                header=["mean", "p95", "lost"],
                title=f"robustness: {family} (error m / lost-track rate vs intensity)",
            )
        )
    print(f"\nwrote {result.csv_path}")
    print(f"wrote {result.metrics_path}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.oracle.fuzz import run_fuzz

    summary = run_fuzz(
        args.scenarios,
        seed=args.seed,
        n_workers=args.workers,
        artifact_dir=args.out,
        shrink=not args.no_shrink,
    )
    print(
        f"fuzz: {summary['n_scenarios']} scenarios, {summary['n_checks']} checks, "
        f"{summary['n_workers']} worker(s), seed {summary['seed']}"
    )
    print(f"digest: {summary['digest']}")
    if summary["heuristic_agreement"] is not None:
        print(f"Algorithm 2 agrees with the exhaustive winner on "
              f"{summary['heuristic_agreement']:.1%} of climbs")
    first = summary["first_divergence"]
    if first is None:
        print("no divergences: optimized kernels agree with the oracle tier")
        return 0
    print(
        f"DIVERGENCE at scenario {first['index']} (check: {first['check']}), "
        f"{summary['n_divergent']} scenario(s) affected"
    )
    print(f"shrunk repro written to {first['artifact']}")
    print(f"replay with: fttt replay-divergence {first['artifact']}")
    return 1


def cmd_replay_divergence(args: argparse.Namespace) -> int:
    from repro.oracle.fuzz import replay_divergence

    result = replay_divergence(args.artifact)
    report = result["report"]
    spec = report["spec"]
    print(
        f"spec: {spec['n_nodes']} nodes, cell {spec['cell_size']}m, C implied by "
        f"(beta={spec['beta']:.3f}, sigma={spec['sigma']:.3f}, eps={spec['resolution_eps']:.3f}), "
        f"mode {spec['mode']}, k={spec['k']}, {spec['n_rounds']} round(s), "
        f"fault {spec['value_fault']}, degradation {spec['degradation']}"
    )
    print(f"recorded check: {result['recorded_check']}")
    if not report["divergences"]:
        print("scenario is clean: the recorded divergence no longer reproduces")
        return 0
    for d in report["divergences"]:
        print(f"  diverged: {d['check']}" + (f" (round {d['round']})" if "round" in d else ""))
    print("reproduced" if result["reproduced"] else "different check diverged")
    return 1


def cmd_sampling_times(args: argparse.Namespace) -> int:
    n = args.sensors
    n_pairs = n * (n - 1) // 2
    k = required_sampling_times(n_pairs, args.confidence)
    print(f"sensors = {n}  ->  node pairs N = {n_pairs}")
    print(f"confidence target = {args.confidence}")
    print(f"required sampling times k = {k}")
    print(f"capture probability at k:   {all_flips_probability(k, n_pairs):.6f}")
    print(f"capture probability at k-1: {all_flips_probability(max(k - 1, 1), n_pairs):.6f}")
    return 0


# Argument types: a bad value is a usage error (exit 2) at parse time,
# before any world is built, not a traceback from deep in a run.


def _int_at_least(minimum: int):
    """A whole number no smaller than *minimum* (``--reps``, ``--rounds``, ...)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _probability(text: str, *, open_interval: bool = False) -> float:
    """A number in [0, 1] (``--dropout``), or in (0, 1) when *open_interval*."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    inside = 0.0 < value < 1.0 if open_interval else 0.0 <= value <= 1.0
    if not inside:
        interval = "(0, 1)" if open_interval else "[0, 1]"
        raise argparse.ArgumentTypeError(f"must be in {interval}, got {value}")
    return value


def _confidence(text: str) -> float:
    """``--confidence``: a probability strictly between 0 and 1."""
    return _probability(text, open_interval=True)


def _names(text: str, choices, what: str) -> list[str]:
    """Comma-separated names, at least one, each one of *choices*."""
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"need at least one {what}")
    for name in names:
        if name not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; choose from {', '.join(choices)}"
            )
    return names


def _tracker_names(text: str) -> list[str]:
    """``--trackers``: comma-separated names, each one of ``TRACKER_NAMES``."""
    from repro.sim.scenario import TRACKER_NAMES

    return _names(text, TRACKER_NAMES, "tracker")


def _fault_families(text: str) -> list[str]:
    """``--families``: comma-separated names, each one of ``FAULT_FAMILIES``."""
    from repro.faultlab.campaign import FAULT_FAMILIES

    return _names(text, FAULT_FAMILIES, "fault family")


def _preset(text: str) -> str:
    """A preset name (``run``, ``stats``), one of ``PRESETS``."""
    from repro.sim.presets import PRESETS

    if text not in PRESETS:
        raise argparse.ArgumentTypeError(
            f"unknown preset {text!r}; choose from {', '.join(PRESETS)}"
        )
    return text


def _preset_or_list(text: str) -> str:
    """``run``'s positional: a preset name, or ``list``."""
    return text if text == "list" else _preset(text)


def _existing_file(text: str) -> str:
    """``replay-divergence``'s artifact: a path to an existing file."""
    if not Path(text).is_file():
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def _intensities(text: str) -> list[float]:
    """``--intensities``: comma-separated fault intensities, each in [0, 1]."""
    values = [_probability(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one intensity")
    return values


# the options a figure command may take; each command registers only the ones it reads
_FIGURE_OPTIONS = {
    "reps": dict(type=_int_at_least(1), default=3, help="replications per point"),
    "seed": dict(type=int, default=0),
    "quick": dict(action="store_true", help="coarse grid, short runs"),
    "out": dict(type=str, default=None, help="directory for CSV output"),
    "trace": dict(action="store_true", help="print the full estimated trace"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fttt",
        description="Regenerate the FTTT paper's experiments (Xie et al., 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=cmd_list)

    for name, fn, flags in (
        ("fig10", cmd_fig10, ("seed", "quick", "trace")),
        ("fig11", cmd_fig11, ("reps", "seed", "quick", "out")),
        ("fig12a", cmd_fig12a, ("reps", "seed", "quick")),
        ("fig12b", cmd_fig12b, ("reps", "seed", "quick", "out")),
        ("fig12cd", cmd_fig12cd, ("reps", "seed", "quick", "out")),
        ("fig13", cmd_fig13, ("seed",)),
        ("fig3", cmd_fig3, ("quick",)),
        ("ablations", cmd_ablations, ("reps", "seed", "quick")),
        ("density", cmd_density, ("seed",)),
    ):
        p = sub.add_parser(name, help=EXPERIMENTS[name])
        for flag in flags:
            p.add_argument(f"--{flag}", **_FIGURE_OPTIONS[flag])
        _obs_options(p)
        p.set_defaults(func=fn)

    pfl = sub.add_parser("faultlab", help=EXPERIMENTS["faultlab"])
    pfl.add_argument(
        "--families",
        type=_fault_families,
        default="dropout,byzantine,stuck,drift,regional",
        help="comma-separated fault families to inject",
    )
    pfl.add_argument(
        "--intensities",
        type=_intensities,
        default="0.0,0.1,0.2,0.3",
        help="comma-separated intensity grid (0 = clean anchor)",
    )
    pfl.add_argument("--trackers", type=_tracker_names, default="fttt,fttt-robust,fttt-zero")
    pfl.add_argument("--reps", type=_int_at_least(1), default=2, help="replications per cell")
    pfl.add_argument("--seed", type=int, default=0)
    pfl.add_argument("--quick", action="store_true", help="coarse grid, short runs")
    pfl.add_argument(
        "--out",
        type=str,
        default="results/faultlab",
        help="directory for robustness.csv + metrics.json + trace.jsonl",
    )
    pfl.add_argument(
        "--workers", type=_int_at_least(1), default=None, help="pool size (default: auto)"
    )
    pfl.set_defaults(func=cmd_faultlab)

    pfz = sub.add_parser("fuzz", help=EXPERIMENTS["fuzz"])
    pfz.add_argument(
        "--scenarios", type=_int_at_least(1), default=200, help="scenario budget"
    )
    pfz.add_argument("--seed", type=int, default=0, help="campaign master seed")
    pfz.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=None,
        help="pool size (default: REPRO_WORKERS env, else 1); results are identical either way",
    )
    pfz.add_argument(
        "--out", type=str, default="results/fuzz", help="directory for divergence artifacts"
    )
    pfz.add_argument(
        "--no-shrink", action="store_true", help="report the raw spec without minimizing it"
    )
    pfz.set_defaults(func=cmd_fuzz)

    prd = sub.add_parser(
        "replay-divergence", help="re-run a recorded fuzz divergence artifact"
    )
    prd.add_argument(
        "artifact", type=_existing_file, help="path to a divergence_*.json written by fttt fuzz"
    )
    prd.set_defaults(func=cmd_replay_divergence)

    pst = sub.add_parser("sampling-times", help=EXPERIMENTS["sampling-times"])
    pst.add_argument("--sensors", type=_int_at_least(2), default=20)
    pst.add_argument("--confidence", type=_confidence, default=0.99)
    pst.set_defaults(func=cmd_sampling_times)

    prep = sub.add_parser("report", help="collect benchmarks/results/*.csv into a markdown report")
    prep.add_argument("--results", type=str, default="benchmarks/results")
    prep.add_argument("--out", type=str, default="benchmarks/results/REPORT.md")
    prep.set_defaults(func=cmd_report)

    prun = sub.add_parser("run", help="run a preset scenario through a set of trackers")
    prun.add_argument(
        "preset", type=_preset_or_list, help="preset name, or 'list' to enumerate presets"
    )
    prun.add_argument("--trackers", type=_tracker_names, default="fttt,fttt-extended,pm,direct-mle")
    prun.add_argument("--seed", type=int, default=0)
    prun.add_argument("--rounds", type=_int_at_least(1), default=None)
    _obs_options(prun)
    prun.set_defaults(func=cmd_run)

    pstat = sub.add_parser(
        "stats", help="run a preset under repro.obs and print the metrics table"
    )
    pstat.add_argument(
        "preset",
        nargs="?",
        type=_preset,
        default="paper-baseline",
        help="preset name (see 'run list')",
    )
    pstat.add_argument("--trackers", type=_tracker_names, default="fttt,fttt-exhaustive")
    pstat.add_argument("--seed", type=int, default=0)
    pstat.add_argument("--rounds", type=_int_at_least(1), default=20)
    pstat.add_argument(
        "--dropout", type=_probability, default=0.0, help="per-round sensor dropout probability"
    )
    pstat.add_argument(
        "--obs-out", type=str, default=None, help="directory for metrics.json + trace.jsonl"
    )
    pstat.set_defaults(func=cmd_stats, stats=True)

    return parser


def _obs_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--stats",
        action="store_true",
        help="run under repro.obs and print the metrics table afterwards",
    )
    p.add_argument(
        "--obs-out",
        type=str,
        default=None,
        help="directory for metrics.json + trace.jsonl (implies --stats)",
    )


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    path = write_report(args.results, args.out)
    print(f"wrote {path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import compare_trackers
    from repro.sim.presets import list_presets, make_preset
    from repro.sim.runner import run_all_trackers

    if args.preset == "list":
        for name, desc in list_presets():
            print(f"{name:18s} {desc}")
        return 0
    scenario = make_preset(args.preset, seed=args.seed)
    results = run_all_trackers(scenario, args.trackers, args.seed + 1, n_rounds=args.rounds)
    print(
        f"preset {args.preset}: {scenario.n_sensors} sensors, "
        f"C = {scenario.uncertainty_c:.3f}, {scenario.face_map.n_faces} faces"
    )
    print(format_table(compare_trackers(results), title="tracking error (metres)"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a preset under observability; main() prints/writes the metrics."""
    from repro.analysis.metrics import compare_trackers
    from repro.network.faults import IndependentDropout
    from repro.sim.presets import make_preset
    from repro.sim.runner import run_all_trackers

    scenario = make_preset(args.preset, seed=args.seed)
    faults = IndependentDropout(p=args.dropout) if args.dropout > 0 else None
    results = run_all_trackers(
        scenario, args.trackers, args.seed + 1, faults=faults, n_rounds=args.rounds
    )
    print(
        f"preset {args.preset}: {scenario.n_sensors} sensors, "
        f"{scenario.face_map.n_faces} faces, dropout p = {args.dropout}"
    )
    print(format_table(compare_trackers(results), title="tracking error (metres)"))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    obs_out = getattr(args, "obs_out", None)
    if not (getattr(args, "stats", False) or obs_out):
        return args.func(args)

    import repro.obs as obs

    trace_path = str(Path(obs_out) / "trace.jsonl") if obs_out else None
    with obs.observe(trace_path=trace_path) as reg:
        rc = args.func(args)
    if obs_out:
        path = obs.write_metrics(Path(obs_out) / "metrics.json", reg)
        print(f"\nwrote {path}")
    print()
    print(obs.format_metrics(reg.snapshot()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
