"""DENSITY — the §5.2 deployment-density trade-off, quantified.

The paper's discussion: "increasing sampling times and deployment density
will reduce the tracking error.  However, too dense deployment will worsen
the communication ability of the sensor networks as well as the delay."
This bench measures both sides on the same deployments: tracking accuracy
and coverage (accuracy side) vs routing-tree relay load and first-death
network lifetime (communication side).
"""

from repro.analysis.coverage import density_tradeoff
from repro.config import GridConfig, SimulationConfig
from repro.sim.experiments import replicate_mean_error

from conftest import emit

N_VALUES = [5, 10, 20, 40]


def test_density_tradeoff(benchmark, results_dir):
    cfg = SimulationConfig(duration_s=20.0, grid=GridConfig(cell_size_m=2.5))

    def regenerate():
        comm = density_tradeoff(N_VALUES, 100.0, 40.0, radio_range=30.0, seed=5)
        acc = {}
        for i, n in enumerate(N_VALUES):
            recs = replicate_mean_error(
                cfg.with_(n_sensors=n), ["fttt"], n_reps=3, seed=70 + i
            )
            acc[n] = recs[0].mean_error
        return comm, acc

    comm, acc = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = ["   n   error(m)  2-coverage  max-relay  lifetime(rounds)"]
    for row in comm:
        n = row["n_sensors"]
        lines.append(
            f"{n:4d}   {acc[n]:7.2f}  {row['two_coverage']:10.2f}  "
            f"{row['max_relay_load']:9d}  {row['lifetime_rounds']:12.0f}"
        )
    emit("DENSITY — §5.2 trade-off: accuracy up, communication down", lines)
    (results_dir / "density_tradeoff.csv").write_text(
        "n,error_m,two_coverage,max_relay,lifetime_rounds\n"
        + "\n".join(
            f"{r['n_sensors']},{acc[r['n_sensors']]:.3f},{r['two_coverage']:.3f},"
            f"{r['max_relay_load']},{r['lifetime_rounds']:.1f}"
            for r in comm
        )
    )

    # accuracy side: error falls with density
    assert acc[N_VALUES[-1]] < acc[N_VALUES[0]]
    # communication side: the bottleneck relay load grows and lifetime falls
    assert comm[-1]["max_relay_load"] >= comm[0]["max_relay_load"]
    assert comm[-1]["lifetime_rounds"] <= comm[0]["lifetime_rounds"]
    # coverage side: 2-coverage (pairwise tracking viability) improves
    assert comm[-1]["two_coverage"] >= comm[0]["two_coverage"]
