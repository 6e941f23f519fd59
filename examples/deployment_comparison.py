#!/usr/bin/env python
"""Deployment geometry study (paper Fig. 10: grid vs random).

Compares FTTT accuracy across deployment geometries — regular grid,
uniform random, jittered grid (imprecise placement), and the cross "+" —
and shows the face-structure statistics each geometry induces (Fig. 3's
message: uncertain bands eat the certain faces).

Run:  python examples/deployment_comparison.py
"""

from repro.analysis.metrics import format_table, summarize_errors
from repro.config import GridConfig, SimulationConfig
from repro.network.deployment import (
    cross_deployment,
    grid_deployment,
    perturbed_grid_deployment,
    random_deployment,
)
from repro.sim.runner import run_tracking
from repro.sim.scenario import make_scenario


def main() -> None:
    config = SimulationConfig(
        n_sensors=9, duration_s=30.0, grid=GridConfig(cell_size_m=2.0)
    )
    field = config.field_size_m

    deployments = {
        "grid": grid_deployment(9, field),
        "random": random_deployment(9, field, 21, min_separation=5.0),
        "jittered grid (3 m)": perturbed_grid_deployment(9, field, 3.0, 22),
        "cross '+'": cross_deployment(field, arm_nodes=2),
    }

    rows = {}
    structure = {}
    for name, nodes in deployments.items():
        scenario = make_scenario(config, nodes=nodes, seed=23)
        fm = scenario.face_map
        structure[name] = [
            fm.n_faces,
            fm.n_certain_faces,
            float((fm.signatures == 0).mean()),
        ]
        tracker = scenario.make_tracker("fttt")
        result = run_tracking(scenario, tracker, 24)
        rows[name] = summarize_errors(result)

    print(
        format_table(
            structure,
            header=["faces", "certain", "zero-frac"],
            title="face structure by deployment (9 sensors)",
            float_fmt="{:8.2f}",
        )
    )
    print()
    print(format_table(rows, title="FTTT tracking error by deployment (metres)"))
    print(
        "\nregular geometries give cleaner face structure; the cross trades\n"
        "coverage at the corners for density along the arms (it exists for\n"
        "the outdoor testbed, not for area coverage)."
    )


if __name__ == "__main__":
    main()
