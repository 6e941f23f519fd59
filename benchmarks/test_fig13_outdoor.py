"""FIG13 — outdoor system evaluation (paper Fig. 13).

Nine simulated IRIS motes in a "+" on a 40 m playground track a walker
carrying a 4 kHz tone along a "⌐"-shaped trace at changeable 1-5 m/s.
Regenerates panels (c) basic FTTT and (d) extended FTTT, plus the frame
statistics of the MIB520 gateway.

Paper claims checked: both variants track well (errors bounded well below
the field scale); the extended trajectory is smoother (lower error
deviation), most visibly near the corner.
"""

import numpy as np

from repro.analysis.metrics import summarize_errors
from repro.testbed.outdoor import build_outdoor_system

from conftest import emit

N_SEEDS = 4


def test_fig13_outdoor_tracking(benchmark, results_dir):
    def regenerate():
        rows = {"basic": [], "extended": []}
        traces = {}
        for seed in range(N_SEEDS):
            system = build_outdoor_system(field_size=40.0, seed=seed)
            for mode in ("basic", "extended"):
                res = system.run(mode=mode, rng=100 + seed)
                rows[mode].append(summarize_errors(res))
                if seed == 0:
                    traces[mode] = res
        return rows, traces, system

    rows, traces, system = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = []
    for mode in ("basic", "extended"):
        means = [s.mean for s in rows[mode]]
        stds = [s.std for s in rows[mode]]
        maxes = [s.max for s in rows[mode]]
        lines.append(
            f"{mode:9s}  mean={np.mean(means):5.2f}  std={np.mean(stds):5.2f}  "
            f"max={np.mean(maxes):5.2f}   (over {N_SEEDS} runs)"
        )
    lines.append(f"gateway frame loss: {system.gateway.loss_rate:.1%}")
    emit("FIG 13 — outdoor testbed: basic vs extended FTTT", lines)

    # write the seed-0 traces (panels c & d)
    for mode, res in traces.items():
        rows_csv = ["t,true_x,true_y,est_x,est_y"]
        for i in range(len(res)):
            rows_csv.append(
                f"{res.times[i]:.2f},{res.truth[i][0]:.2f},{res.truth[i][1]:.2f},"
                f"{res.positions[i][0]:.2f},{res.positions[i][1]:.2f}"
            )
        (results_dir / f"fig13_{mode}.csv").write_text("\n".join(rows_csv))

    basic_mean = np.mean([s.mean for s in rows["basic"]])
    basic_max = np.mean([s.max for s in rows["basic"]])
    ext_std = np.mean([s.std for s in rows["extended"]])
    basic_std = np.mean([s.std for s in rows["basic"]])

    # claim 1: both track well — even the max error is acceptable
    assert basic_mean < 10.0  # quarter of the 40 m playground
    assert basic_max < 25.0
    # claim 2: extended is smoother
    assert ext_std < basic_std
