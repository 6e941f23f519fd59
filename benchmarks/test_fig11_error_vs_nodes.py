"""FIG11 — dynamic error series and error vs sensor count (paper Fig. 11).

(a) per-round tracking error along the time series for FTTT / PM /
    Direct MLE at n = 10, k = 5, eps = 1;
(b) mean tracking error vs number of sensors (5..40);
(c) standard deviation of tracking error vs number of sensors.

Shape claims asserted: FTTT < PM and FTTT < Direct MLE on aggregate;
error falls with n, steepest below n ~ 10; std falls with n.
The timed quantity of the (b,c) test is the full sweep regeneration.
"""

import numpy as np

from repro.analysis.metrics import summarize_errors
from repro.config import GridConfig, SimulationConfig
from repro.sim.experiments import sweep_n_sensors
from repro.sim.io import records_to_csv
from repro.sim.runner import run_all_trackers, run_tracking
from repro.sim.scenario import make_scenario

from conftest import emit

TRACKERS = ["fttt", "pm", "direct-mle"]
CFG = SimulationConfig(duration_s=30.0, grid=GridConfig(cell_size_m=2.5))
N_VALUES = [5, 10, 15, 20, 25, 30, 35, 40]
N_REPS = 3


def test_fig11a_time_series(benchmark, results_dir):
    def regenerate():
        scenario = make_scenario(CFG.with_(n_sensors=10), seed=5)
        return run_all_trackers(scenario, TRACKERS, 6)

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    errs = {name: res.errors for name, res in results.items()}
    times = results["fttt"].times
    rows = ["t," + ",".join(TRACKERS)]
    for i, t in enumerate(times):
        rows.append(f"{t:.2f}," + ",".join(f"{errs[n][i]:.2f}" for n in TRACKERS))
    (results_dir / "fig11a.csv").write_text("\n".join(rows))

    lines = [
        f"{name:10s}  mean={summarize_errors(res).mean:6.2f}  "
        f"std={summarize_errors(res).std:6.2f}"
        for name, res in results.items()
    ]
    emit("FIG 11(a) — dynamic tracking error along the time series (n=10)", lines)
    assert summarize_errors(results["fttt"]).mean < summarize_errors(results["direct-mle"]).mean


def test_fig11bc_error_vs_sensors(benchmark, results_dir):
    sweep = benchmark.pedantic(
        lambda: sweep_n_sensors(N_VALUES, TRACKERS, base_config=CFG, n_reps=N_REPS, seed=0),
        rounds=1,
        iterations=1,
    )
    records_to_csv(sweep, results_dir / "fig11bc.csv")
    by = {(r.tracker, r.params["n_sensors"]): r for r in sweep}
    lines = ["   n  " + "".join(f"{t:>16s}" for t in TRACKERS) + "   (mean/std)"]
    for n in N_VALUES:
        cells = [
            f"{by[(t, n)].mean_error:7.2f}/{by[(t, n)].std_error:5.2f}" for t in TRACKERS
        ]
        lines.append(f"{n:4d}  " + "  ".join(cells))
    emit("FIG 11(b,c) — mean error and std vs number of sensors (k=5, eps=1)", lines)

    fttt_means = np.array([by[("fttt", n)].mean_error for n in N_VALUES])
    pm_means = np.array([by[("pm", n)].mean_error for n in N_VALUES])
    mle_means = np.array([by[("direct-mle", n)].mean_error for n in N_VALUES])

    # shape 1: FTTT dominates both baselines on aggregate and at most points
    assert fttt_means.mean() < pm_means.mean()
    assert fttt_means.mean() < mle_means.mean()
    assert (fttt_means <= pm_means + 0.5).mean() >= 0.75
    # shape 2: error decreases with n, and the early drop dominates
    assert fttt_means[-1] < fttt_means[0]
    early_drop = fttt_means[0] - fttt_means[1]  # 5 -> 10 sensors
    late_drop = fttt_means[-2] - fttt_means[-1]  # 35 -> 40 sensors
    assert early_drop > late_drop - 0.25
    # shape 3: the error std falls with n as well
    fttt_stds = np.array([by[("fttt", n)].std_error for n in N_VALUES])
    assert fttt_stds[-1] < fttt_stds[0]


def test_fig11_tracking_run_benchmark(benchmark):
    """Microbench: a full 30 s FTTT tracking run at n = 10."""
    scenario = make_scenario(CFG.with_(n_sensors=10), seed=5)
    _ = scenario.face_map  # build outside the timer

    def run():
        tracker = scenario.make_tracker("fttt")
        return run_tracking(scenario, tracker, 7)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert np.isfinite(result.mean_error)
