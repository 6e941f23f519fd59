"""FIG12B — impact of grouping-sampling times (paper Fig. 12(b)).

The paper sweeps k in {3, 5, 7, 9} over n in 10..40 at eps = 1 and
reports (1) larger k lowers the error and (2) with very limited k and
many sensors, the error can *rise* with n (flip information cannot be
captured).

Reproduced in model mode (flip capture is exactly the §5.1 process);
a physical-channel static-target table confirms the k-direction with the
motion confound removed.
"""

import numpy as np

from repro.config import GridConfig, SimulationConfig
from repro.geometry.apollonius import uncertainty_constant
from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.mobility.base import StationaryTarget
from repro.mobility.waypoint import RandomWaypoint
from repro.network.deployment import random_deployment
from repro.sim.modelmode import ModelSampler, run_model_tracking
from repro.sim.runner import run_tracking
from repro.sim.scenario import make_scenario

from conftest import emit

K_VALUES = [3, 5, 7, 9]
N_VALUES = [10, 20, 30, 40]
N_REPS = 5


def model_mode_error(k: int, n: int, n_reps: int = N_REPS) -> float:
    c = uncertainty_constant(1.0, 4.0, 6.0)
    errs = []
    for rep in range(n_reps):
        seed = 13 * rep
        nodes = random_deployment(n, 100.0, seed, min_separation=4.0)
        fm = build_face_map(nodes, Grid.square(100.0, 2.5), c, sensing_range=40.0)
        mob = RandomWaypoint(field_size=100.0, duration_s=30.0, seed=seed + 1)
        times = np.arange(60) * 0.5
        sampler = ModelSampler(nodes, c, k=k, sensing_range=40.0)
        errs.append(
            run_model_tracking(fm, sampler, mob.position(times), times, seed + 2).mean_error
        )
    return float(np.mean(errs))


def test_fig12b_model_mode(benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: {k: [model_mode_error(k, n) for n in N_VALUES] for k in K_VALUES},
        rounds=1,
        iterations=1,
    )
    lines = ["   n  " + "".join(f"{f'k={k}':>9s}" for k in K_VALUES)]
    for j, n in enumerate(N_VALUES):
        lines.append(f"{n:4d}  " + "".join(f"{table[k][j]:9.2f}" for k in K_VALUES))
    emit("FIG 12(b) — mean error vs sensors for each sampling count k (eps=1)", lines)
    (results_dir / "fig12b.csv").write_text(
        "n," + ",".join(f"k{k}" for k in K_VALUES) + "\n"
        + "\n".join(
            f"{n}," + ",".join(f"{table[k][j]:.3f}" for k in K_VALUES)
            for j, n in enumerate(N_VALUES)
        )
    )

    # shape 1: more sampling times, lower error (at every n)
    for j in range(len(N_VALUES)):
        assert table[K_VALUES[-1]][j] <= table[K_VALUES[0]][j] + 0.05
    # shape 2: the k-gain is present on aggregate
    assert np.mean(table[9]) < np.mean(table[3])


def test_fig12b_physical_static_target(benchmark):
    """Physical channel, stationary target: larger k strictly helps."""
    cfg = SimulationConfig(duration_s=20.0, grid=GridConfig(cell_size_m=2.5))

    def regenerate():
        out = {}
        for k in (3, 9):
            vals = []
            for seed in range(3):
                scenario = make_scenario(
                    cfg.with_(sampling_times=k),
                    seed=300 + seed,
                    mobility=StationaryTarget(np.array([35.0 + 10 * seed, 55.0])),
                )
                tracker = scenario.make_tracker("fttt")
                vals.append(run_tracking(scenario, tracker, 400 + seed).mean_error)
            out[k] = float(np.mean(vals))
        return out

    errs = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    emit(
        "FIG 12(b) — physical channel, static target",
        [f"k={k}: mean error {v:.2f} m" for k, v in errs.items()],
    )
    assert errs[9] < errs[3]
