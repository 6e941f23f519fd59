#!/usr/bin/env python
"""Choosing the grouping-sampling count k (paper §5.1).

Answers the deployment question "how many samples per localization do I
need?" three ways:

1. the paper's closed form  k > 1 - log2(1 - lambda^(1/(N-1)));
2. Monte-Carlo validation of the flip-capture probability;
3. an actual tracking sweep showing the error saturating in k.

Run:  python examples/sampling_budget.py
"""

from repro.analysis.sampling_times import (
    all_flips_probability,
    required_sampling_times,
    simulate_flip_capture,
)
from repro.config import GridConfig, SimulationConfig
from repro.sim.experiments import replicate_mean_error


def main() -> None:
    print("closed form (paper §5.1)")
    print("sensors  pairs  k@90%  k@99%  k@99.9%")
    for n in (5, 10, 20, 40):
        pairs = n * (n - 1) // 2
        ks = [required_sampling_times(pairs, conf) for conf in (0.90, 0.99, 0.999)]
        print(f"{n:7d}  {pairs:5d}  {ks[0]:5d}  {ks[1]:5d}  {ks[2]:7d}")
    print("\n(the paper's worked example: 20 sensors @ 99% -> k = "
          f"{required_sampling_times(190, 0.99)})")

    print("\nMonte-Carlo check of the capture probability (N = 45 pairs)")
    print("    k   closed-form   simulated")
    for k in (3, 5, 7, 9):
        closed = all_flips_probability(k, 45)
        mc = simulate_flip_capture(k, 45, n_trials=40_000, rng=k)
        print(f"{k:5d}   {closed:11.4f}   {mc:9.4f}")

    print("\ntracking error vs k (10 sensors, physical channel, 3 reps,")
    print("common random worlds across k so the trend is unconfounded)")
    base = SimulationConfig(
        n_sensors=10, duration_s=30.0, grid=GridConfig(cell_size_m=2.5)
    )
    print("    k   mean error (m)")
    for k in (1, 3, 5, 7, 9):
        recs = replicate_mean_error(
            base.with_(sampling_times=k), ["fttt"], n_reps=3, seed=50
        )
        print(f"{k:5d}   {recs[0].mean_error:10.2f}")
    print(
        "\nthe gain saturates once k captures nearly all flips — the\n"
        "logarithmic-budget message of §5.1.  (With a moving target, very\n"
        "large k also stretches the grouping interval, which offsets part\n"
        "of the gain — a physical effect the paper's instantaneous-group\n"
        "model does not include.)"
    )


if __name__ == "__main__":
    main()
