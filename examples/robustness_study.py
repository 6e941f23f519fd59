#!/usr/bin/env python
"""Robustness study: what the paper's model leaves out.

Stresses FTTT beyond the paper's assumptions on the same worlds:

* six trackers including the uncertainty-aware PkNN and the range-free
  weighted centroid;
* noise structure — i.i.d. (the paper's model), temporally correlated
  (starves flip capture), common-mode (cancels in pairwise comparisons);
* heavy-tailed and contaminated noise at equal power;
* a momentum-carrying Gauss-Markov target instead of random waypoint.

Run:  python examples/robustness_study.py
"""

from repro.analysis.metrics import compare_trackers, format_table, summarize_errors
from repro.config import GridConfig, SimulationConfig
from repro.mobility.gauss_markov import GaussMarkov
from repro.rf.channel import RssChannel
from repro.rf.noise import MixtureNoise, StudentTNoise
from repro.rf.shadowing import CommonModeNoise, TemporallyCorrelatedNoise
from repro.sim.runner import generate_batches, run_all_trackers
from repro.sim.scenario import make_scenario

CFG = SimulationConfig(n_sensors=12, duration_s=30.0, grid=GridConfig(cell_size_m=2.5))


def swap_noise(scenario, noise):
    scenario.channel = RssChannel(
        nodes=scenario.nodes,
        pathloss=scenario.channel.pathloss,
        noise=noise,
        sensing_range_m=scenario.channel.sensing_range_m,
    )
    scenario.sampler = type(scenario.sampler)(
        channel=scenario.channel,
        k=scenario.sampler.k,
        sampling_rate_hz=scenario.sampler.sampling_rate_hz,
    )


def main() -> None:
    print("=== tracker field under the paper's assumptions ===")
    scenario = make_scenario(CFG, seed=31)
    results = run_all_trackers(
        scenario,
        ["fttt", "fttt-extended", "pm", "direct-mle", "pknn", "weighted-centroid"],
        32,
    )
    print(format_table(compare_trackers(results)))

    print("\n=== noise structure (same power, sigma = 6 dB) ===")
    sigma = CFG.noise_sigma_dbm
    noises = {
        "iid gaussian (paper)": None,
        "temporal rho=0.9": TemporallyCorrelatedNoise(sigma_dbm=sigma, rho=0.9),
        "common-mode a=0.8": CommonModeNoise(sigma_dbm=sigma, alpha=0.8),
        "student-t dof=3": StudentTNoise(sigma_dbm=sigma, dof=3.0),
        "5% outliers @18dB": MixtureNoise(sigma_dbm=sigma, outlier_sigma_dbm=18.0, outlier_prob=0.05),
    }
    rows = {}
    for label, noise in noises.items():
        sc = make_scenario(CFG, seed=31)
        if noise is not None:
            if isinstance(noise, TemporallyCorrelatedNoise):
                noise.reset()
            swap_noise(sc, noise)
        batches = generate_batches(sc, 33)
        rows[label] = summarize_errors(sc.make_tracker("fttt").track(batches))
    print(format_table(rows, title="FTTT mean error by noise structure"))
    print(
        "\ncommon-mode interference barely hurts (pairwise comparisons cancel\n"
        "it); temporal correlation is the real enemy of grouping sampling."
    )

    print("\n=== Gauss-Markov target (momentum, no straight legs) ===")
    rows = {}
    for label, mob in (
        ("random waypoint", None),
        ("gauss-markov", GaussMarkov(field_size=CFG.field_size_m, duration_s=CFG.duration_s, seed=34)),
    ):
        sc = make_scenario(CFG, seed=31, mobility=mob)
        res = run_all_trackers(sc, ["fttt", "pm"], 35)
        for name, r in res.items():
            rows[f"{label} / {name}"] = summarize_errors(r)
    print(format_table(rows))


if __name__ == "__main__":
    main()
