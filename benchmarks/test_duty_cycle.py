"""DUTY — tracking-aware duty cycling (extension; paper defers to ref [28]).

Closed loop: predict the target from recent estimates, wake only the
sensors that could hear it, let the Eq. 6 fault path absorb the sleepers.
The bench sweeps the guard radius and reports the energy/accuracy
frontier — the claim is that substantial sensor-round savings cost almost
nothing because the slept sensors were mostly out of range anyway.
"""

import numpy as np

from repro.config import GridConfig, SimulationConfig
from repro.network.duty_cycle import DutyCycleController
from repro.sim.runner import run_tracking, run_tracking_with_duty_cycle
from repro.sim.scenario import make_scenario

from conftest import emit

CFG = SimulationConfig(n_sensors=25, duration_s=30.0, grid=GridConfig(cell_size_m=2.5))
GUARDS = (5.0, 15.0, 30.0)
SEEDS = (3, 8, 21)


def test_duty_cycle_frontier(benchmark, results_dir):
    def regenerate():
        baseline = []
        table = {g: {"err": [], "saved": []} for g in GUARDS}
        for seed in SEEDS:
            scenario = make_scenario(CFG, seed=seed)
            base = run_tracking(scenario, scenario.make_tracker("fttt"), seed + 100)
            baseline.append(base.mean_error)
            for g in GUARDS:
                ctrl = DutyCycleController(
                    scenario.nodes, sensing_range_m=CFG.sensing_range_m, guard_m=g
                )
                res, ctrl = run_tracking_with_duty_cycle(
                    scenario, scenario.make_tracker("fttt"), ctrl, seed + 100
                )
                table[g]["err"].append(res.mean_error)
                table[g]["saved"].append(ctrl.energy_saved_fraction())
        return float(np.mean(baseline)), table

    base_err, table = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = [f"always-on baseline: {base_err:.2f} m", "guard   error   energy saved"]
    for g in GUARDS:
        lines.append(
            f"{g:5.0f}  {np.mean(table[g]['err']):6.2f}   {np.mean(table[g]['saved']):12.1%}"
        )
    emit("DUTY — energy/accuracy frontier of tracking-aware duty cycling (n=25)", lines)
    (results_dir / "duty_cycle.csv").write_text(
        "guard_m,error_m,energy_saved\n"
        + "\n".join(
            f"{g},{np.mean(table[g]['err']):.3f},{np.mean(table[g]['saved']):.4f}"
            for g in GUARDS
        )
    )

    # meaningful savings at the mid guard with near-baseline accuracy
    assert np.mean(table[15.0]["saved"]) > 0.15
    assert np.mean(table[15.0]["err"]) < base_err * 1.25 + 0.5
    # monotone frontier: bigger guard = less savings, no worse accuracy
    saved = [np.mean(table[g]["saved"]) for g in GUARDS]
    assert all(a >= b - 0.02 for a, b in zip(saved, saved[1:]))
