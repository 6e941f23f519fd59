"""Ablation drivers for the design choices DESIGN.md calls out.

Each function isolates one decision and returns comparable records:

* ``ablate_uncertainty_constant`` — Eq. 3's expectation constant vs the
  sampling-calibrated constant (why calibration matters);
* ``ablate_matcher_hops`` — Algorithm 2 verbatim (1-hop) vs the shipped
  2-hop climb vs exhaustive;
* ``ablate_soft_signatures`` — extended vectors against qualitative vs
  expected-value signatures;
* ``ablate_noise_structure`` — i.i.d. vs temporally-correlated vs
  common-mode noise (FTTT's pairwise differencing cancels common mode).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.metrics import summarize_errors
from repro.config import SimulationConfig
from repro.core.tracker import FTTTracker
from repro.rf.channel import RssChannel
from repro.rf.shadowing import CommonModeNoise, TemporallyCorrelatedNoise
from repro.sim.runner import generate_batches
from repro.sim.scenario import Scenario, make_scenario, replications

__all__ = [
    "ablate_uncertainty_constant",
    "ablate_matcher_hops",
    "ablate_soft_signatures",
    "ablate_noise_structure",
]


def _mean_over_reps(run_one, worlds) -> dict[str, float]:
    """Run ``run_one(scenario, rng) -> {variant: TrackResult}`` on every
    ``(scenario, noise_rng)`` replication of *worlds* and average."""
    sums: dict[str, list[float]] = {}
    stds: dict[str, list[float]] = {}
    for scenario, noise_rng in worlds:
        results = run_one(scenario, noise_rng)
        for name, res in results.items():
            s = summarize_errors(res)
            sums.setdefault(name, []).append(s.mean)
            stds.setdefault(name, []).append(s.std)
    out = {}
    for name in sums:
        out[name] = float(np.mean(sums[name]))
        out[name + "/std"] = float(np.mean(stds[name]))
    return out


def _fttt_only(label: str):
    """``run_one`` for :func:`_mean_over_reps`: the default tracker alone."""

    def run_one(scenario: Scenario, rng) -> dict:
        batches = generate_batches(scenario, rng)
        return {label: scenario.make_tracker("fttt").track(batches)}

    return run_one


def ablate_uncertainty_constant(
    config: "SimulationConfig | None" = None, *, n_reps: int = 3, seed: int = 0
) -> dict[str, float]:
    """Paper Eq. 3 constant vs sampling-calibrated constant, same worlds."""
    config = config or SimulationConfig(duration_s=30.0)
    out: dict[str, float] = {}
    for c_mode in ("paper", "calibrated"):
        make = partial(make_scenario, c_mode=c_mode)
        worlds = replications(config, n_reps=n_reps, seed=seed, make=make)
        out.update(_mean_over_reps(_fttt_only(c_mode), worlds))
    return out


def ablate_matcher_hops(
    config: "SimulationConfig | None" = None, *, n_reps: int = 3, seed: int = 0
) -> dict[str, float]:
    """1-hop (Algorithm 2 verbatim) vs 2-hop vs exhaustive matching."""
    config = config or SimulationConfig(n_sensors=20, duration_s=30.0)

    def run_one(scenario: Scenario, rng) -> dict:
        from repro.core.heuristic import HeuristicMatcher

        batches = generate_batches(scenario, rng)
        results = {}
        for label, kind in (("hops=1", 1), ("hops=2", 2)):
            tracker = scenario.make_tracker("fttt")
            tracker.matcher = HeuristicMatcher(scenario.face_map, hops=kind)
            results[label] = tracker.track(batches)
        ex = scenario.make_tracker("fttt-exhaustive")
        results["exhaustive"] = ex.track(batches)
        return results

    return _mean_over_reps(run_one, replications(config, n_reps=n_reps, seed=seed))


def ablate_soft_signatures(
    config: "SimulationConfig | None" = None, *, n_reps: int = 3, seed: int = 0
) -> dict[str, float]:
    """Extended vectors vs qualitative and expected-value signatures."""
    config = config or SimulationConfig(duration_s=30.0)

    def run_one(scenario: Scenario, rng) -> dict:
        batches = generate_batches(scenario, rng)
        results = {}
        hard = FTTTracker(scenario.face_map, mode="extended", comparator_eps=config.resolution_dbm)
        results["extended/hard-sig"] = hard.track(batches)
        soft = FTTTracker(
            scenario.face_map,
            mode="extended",
            comparator_eps=config.resolution_dbm,
            soft_signatures=scenario.soft_signatures,
        )
        results["extended/soft-sig"] = soft.track(batches)
        basic = scenario.make_tracker("fttt")
        results["basic"] = basic.track(batches)
        return results

    return _mean_over_reps(run_one, replications(config, n_reps=n_reps, seed=seed))


def ablate_noise_structure(
    config: "SimulationConfig | None" = None, *, n_reps: int = 3, seed: int = 0
) -> dict[str, float]:
    """i.i.d. vs temporally-correlated vs common-mode shadowing.

    Same total noise power everywhere; what changes is its structure.
    Temporal correlation starves the grouping sampling of independent
    looks (flip capture degrades); common-mode noise cancels in pairwise
    comparisons (FTTT improves).
    """
    config = config or SimulationConfig(duration_s=30.0)
    sigma = config.noise_sigma_dbm
    variants = {
        "iid": None,  # scenario default
        "temporal rho=0.9": TemporallyCorrelatedNoise(sigma_dbm=sigma, rho=0.9),
        "common-mode a=0.7": CommonModeNoise(sigma_dbm=sigma, alpha=0.7),
    }
    out: dict[str, float] = {}
    for label, noise in variants.items():
        make = make_scenario if noise is None else partial(_with_noise, noise=noise)
        worlds = replications(config, n_reps=n_reps, seed=seed, make=make)
        out.update(_mean_over_reps(_fttt_only(label), worlds))
    return out


def _with_noise(config: SimulationConfig, *, seed, noise) -> Scenario:
    """The default world with its channel noise replaced by *noise*."""
    scenario = make_scenario(config, seed=seed)
    if isinstance(noise, TemporallyCorrelatedNoise):
        noise.reset()
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
    return scenario
