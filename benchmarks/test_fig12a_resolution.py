"""FIG12A — impact of sensing resolution (paper Fig. 12(a)).

The paper sweeps eps in 0.5..3 dBm for n in {10, 15, 20, 25} at k = 5 and
reports error growing with eps, with the slope flattening for n >= 20.

Reproduced in model mode (the paper's own flip semantics, where eps
defines the uncertain areas).  The physical channel at Table 1's
sigma = 6 dB makes eps second-order — a documented deviation, reported
alongside (see EXPERIMENTS.md).
"""

import numpy as np

from repro.config import GridConfig, SimulationConfig
from repro.geometry.apollonius import uncertainty_constant
from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.mobility.waypoint import RandomWaypoint
from repro.network.deployment import random_deployment
from repro.sim.experiments import sweep_resolution
from repro.sim.modelmode import ModelSampler, run_model_tracking

from conftest import emit

EPS_VALUES = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
N_VALUES = [10, 15, 20, 25]
N_REPS = 6


def model_mode_error(eps: float, n: int, n_reps: int = N_REPS) -> float:
    errs = []
    for rep in range(n_reps):
        seed = 7 * rep
        nodes = random_deployment(n, 100.0, seed, min_separation=4.0)
        c = uncertainty_constant(eps, 4.0, 6.0)
        fm = build_face_map(nodes, Grid.square(100.0, 2.5), c, sensing_range=40.0)
        mob = RandomWaypoint(field_size=100.0, duration_s=30.0, seed=seed + 1)
        times = np.arange(60) * 0.5
        sampler = ModelSampler(nodes, c, k=5, sensing_range=40.0)
        errs.append(
            run_model_tracking(fm, sampler, mob.position(times), times, seed + 2).mean_error
        )
    return float(np.mean(errs))


def test_fig12a_model_mode(benchmark, results_dir):
    def regenerate():
        return {
            n: [model_mode_error(eps, n) for eps in EPS_VALUES] for n in N_VALUES
        }

    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = [" eps  " + "".join(f"{f'n={n}':>9s}" for n in N_VALUES)]
    for i, eps in enumerate(EPS_VALUES):
        lines.append(f"{eps:4.1f}  " + "".join(f"{table[n][i]:9.2f}" for n in N_VALUES))
    emit("FIG 12(a) — mean error vs sensing resolution (model mode, k=5)", lines)
    (results_dir / "fig12a.csv").write_text(
        "eps," + ",".join(f"n{n}" for n in N_VALUES) + "\n"
        + "\n".join(
            f"{eps}," + ",".join(f"{table[n][i]:.3f}" for n in N_VALUES)
            for i, eps in enumerate(EPS_VALUES)
        )
    )

    # shape 1: error grows (weakly) with eps where the paper says it is
    # sensitive (n < 20); averages of the two endpoints damp seed noise
    for n in (10, 15):
        lo = np.mean(table[n][:2])
        hi = np.mean(table[n][-2:])
        assert hi >= lo * 0.98
    # shape 2: for n >= 20 the paper itself reports insensitivity
    for n in (20, 25):
        lo = np.mean(table[n][:2])
        hi = np.mean(table[n][-2:])
        assert abs(hi - lo) < 0.5
    # shape 3: more sensors = lower error across the board
    assert np.mean(table[25]) < np.mean(table[10])


def test_fig12a_physical_mode_deviation(benchmark, results_dir):
    """Documented deviation: physical sigma = 6 dB noise swamps eps."""
    cfg = SimulationConfig(duration_s=20.0, grid=GridConfig(cell_size_m=2.5))

    recs = benchmark.pedantic(
        lambda: sweep_resolution([0.5, 3.0], [10], base_config=cfg, n_reps=3, seed=0),
        rounds=1,
        iterations=1,
    )
    by_eps = {r.params["resolution_dbm"]: r.mean_error for r in recs}
    emit(
        "FIG 12(a) — physical channel (deviation: eps is second-order at sigma=6)",
        [f"eps={eps}: mean error {err:.2f} m" for eps, err in by_eps.items()],
    )
    ratio = by_eps[0.5] / by_eps[3.0]
    assert 0.7 < ratio < 1.5
