#!/usr/bin/env python
"""Operating FTTT as a live service: streaming, duty cycling, energy.

A base-station-eye view of a deployment: rounds stream in (some out of
order, one long outage), the online session produces estimates with
confidence, and a duty-cycle controller keeps only useful sensors awake,
reporting the sensor-rounds that saves.

Run:  python examples/streaming_deployment.py
"""

import numpy as np

from repro.config import GridConfig, SimulationConfig
from repro.core.streaming import TrackingSession
from repro.core.trajectory import smoothness_metrics
from repro.network.duty_cycle import DutyCycleController
from repro.sim.runner import generate_batches, run_tracking, run_tracking_with_duty_cycle
from repro.sim.scenario import make_scenario
from repro.viz import sparkline


def main() -> None:
    cfg = SimulationConfig(n_sensors=20, duration_s=40.0, grid=GridConfig(cell_size_m=2.5))
    scenario = make_scenario(cfg, seed=77)

    print("=== streaming session (reordered rounds + one outage) ===")
    batches = generate_batches(scenario, 78)
    # shuffle a few rounds locally and drop a block to simulate an outage
    stream = batches[:20] + batches[22:30][::-1] + batches[40:]
    session = TrackingSession(
        scenario.make_tracker("fttt"),
        expected_period_s=scenario.sampler.group_duration_s,
        reorder_buffer=3,
    )
    for batch in stream:
        session.submit(batch)
    session.flush()
    states = session.history
    conf = np.array([s.confidence for s in states])
    print(f"rounds processed: {states[-1].rounds_processed}")
    print(f"outages detected: {session.gaps_detected}")
    print(f"confidence over time: {sparkline(conf, width=60)}")
    print(f"mean confidence: {conf.mean():.2f} (1.0 = exact signature match)")

    print("\n=== duty cycling: energy/accuracy frontier ===")
    base = run_tracking(scenario, scenario.make_tracker("fttt"), 79)
    print(f"always-on: {base.mean_error:.2f} m mean error, 100% sensor-rounds awake")
    for guard in (5.0, 15.0, 30.0):
        ctrl = DutyCycleController(
            scenario.nodes, sensing_range_m=cfg.sensing_range_m, guard_m=guard
        )
        res, ctrl = run_tracking_with_duty_cycle(
            scenario, scenario.make_tracker("fttt"), ctrl, 79
        )
        print(
            f"guard {guard:4.0f} m: {res.mean_error:.2f} m mean error, "
            f"{ctrl.energy_saved_fraction():.0%} sensor-rounds saved"
        )

    print("\n=== trajectory quality (basic vs extended, smoothed) ===")
    from repro.core.trajectory import smooth_result

    for name in ("fttt", "fttt-extended"):
        res = run_tracking(scenario, scenario.make_tracker(name), 80)
        sm = smoothness_metrics(res)
        smoothed = smooth_result(res, method="median", window=3)
        print(
            f"{name:14s}: err {res.mean_error:5.2f} m, path inflation {sm.path_inflation:4.2f}; "
            f"median-filtered err {smoothed.mean_error:5.2f} m"
        )


if __name__ == "__main__":
    main()
