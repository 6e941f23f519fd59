"""FIG12CD — basic vs extended FTTT (paper Fig. 12(c,d)).

The paper compares the mean tracking error (c) and the standard deviation
of the tracking error (d) between basic and extended FTTT over n, at
k = 5, eps = 1.  Claim: the extension "does not ultimately reduce the
tracking error [but] reduces the error deviation", smoothing the
trajectory.
"""

import numpy as np

from repro.config import GridConfig, SimulationConfig
from repro.sim.experiments import sweep_basic_vs_extended
from repro.sim.io import records_to_csv

from conftest import emit

CFG = SimulationConfig(duration_s=30.0, grid=GridConfig(cell_size_m=2.5))
N_VALUES = [10, 15, 20, 25, 30]
N_REPS = 4


def test_fig12cd_basic_vs_extended(benchmark, results_dir):
    sweep = benchmark.pedantic(
        lambda: sweep_basic_vs_extended(N_VALUES, base_config=CFG, n_reps=N_REPS, seed=0),
        rounds=1,
        iterations=1,
    )
    records_to_csv(sweep, results_dir / "fig12cd.csv")
    by = {(r.tracker, r.params["n_sensors"]): r for r in sweep}

    lines = ["   n   basic mean/std    extended mean/std"]
    for n in N_VALUES:
        b = by[("fttt", n)]
        e = by[("fttt-extended", n)]
        lines.append(
            f"{n:4d}   {b.mean_error:6.2f}/{b.std_error:5.2f}      "
            f"{e.mean_error:6.2f}/{e.std_error:5.2f}"
        )
    emit("FIG 12(c,d) — basic vs extended FTTT (k=5, eps=1)", lines)

    basic_means = np.array([by[("fttt", n)].mean_error for n in N_VALUES])
    ext_means = np.array([by[("fttt-extended", n)].mean_error for n in N_VALUES])
    basic_stds = np.array([by[("fttt", n)].std_error for n in N_VALUES])
    ext_stds = np.array([by[("fttt-extended", n)].std_error for n in N_VALUES])

    # shape 1: the extension reduces the error deviation on aggregate —
    # Fig. 12(d)'s message (the paper quotes 79% at n = 10; direction is
    # the reproducible part)
    assert ext_stds.mean() < basic_stds.mean()
    # shape 2: the mean error is not made worse (c)
    assert ext_means.mean() <= basic_means.mean() * 1.05
    # shape 3: at most points the extended std is at or below the basic std
    assert (ext_stds <= basic_stds + 0.15).mean() >= 0.8
