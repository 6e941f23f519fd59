"""Replicated parameter sweeps — the engines behind Figs. 11 and 12.

Every sweep replicates each parameter point over several independent
worlds (fresh deployment, trace, and noise per replication via spawned
RNG streams) and aggregates mean tracking error and its standard
deviation, which is exactly what the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from repro.analysis.metrics import summarize_errors
from repro.config import SimulationConfig
from repro.network.faults import FaultModel
from repro.obs.tracing import span
from repro.sim.runner import run_all_trackers
from repro.sim.scenario import make_scenario, replications

__all__ = [
    "SweepRecord",
    "replicate_mean_error",
    "sweep_n_sensors",
    "sweep_resolution",
    "sweep_sampling_times",
    "sweep_basic_vs_extended",
]


@dataclass(frozen=True)
class SweepRecord:
    """One (parameter point, tracker) cell of a sweep."""

    tracker: str
    params: dict
    mean_error: float
    std_error: float
    mean_of_std: float  # mean per-run std (trajectory roughness)
    n_reps: int
    p95_error: float = float("nan")  # pooled 95th-percentile round error
    lost_track_rate: float = float("nan")  # rounds beyond the lost-track radius
    per_rep_means: tuple[float, ...] = field(default=(), repr=False)

    def as_dict(self) -> dict:
        d = {
            "tracker": self.tracker,
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "mean_of_std": self.mean_of_std,
            "p95_error": self.p95_error,
            "lost_track_rate": self.lost_track_rate,
            "n_reps": self.n_reps,
        }
        d.update(self.params)
        return d


def replicate_mean_error(
    config: SimulationConfig,
    tracker_names: Sequence[str],
    *,
    n_reps: int = 3,
    seed: int = 0,
    deployment: str = "random",
    params: "dict | None" = None,
    faults: "FaultModel | None" = None,
) -> list[SweepRecord]:
    """Run every tracker over *n_reps* independent worlds; aggregate errors.

    ``mean_error`` averages each replication's mean tracking error;
    ``std_error`` is the pooled standard deviation of *all* per-round
    errors across replications (the quantity of Figs. 11c / 12d);
    ``mean_of_std`` averages the per-run stds.  ``p95_error`` is the
    95th percentile of the pooled per-round errors, and
    ``lost_track_rate`` the fraction of rounds whose error exceeds a
    quarter of the field side (an estimate that far off is tracking a
    different part of the field).
    ``faults`` applies the given fault model to every replication's
    batch stream (the Eq. 6-7 masking then shows up in the per-round
    observability metrics).
    """
    lost_track_threshold_m = config.field_size_m / 4.0
    params = dict(params or {})
    per_tracker_means: dict[str, list[float]] = {n: [] for n in tracker_names}
    per_tracker_all_errors: dict[str, list[np.ndarray]] = {n: [] for n in tracker_names}
    per_tracker_stds: dict[str, list[float]] = {n: [] for n in tracker_names}
    make = partial(make_scenario, deployment=deployment)
    worlds = replications(config, n_reps=n_reps, seed=seed, make=make)
    for rep, (scenario, noise_rng) in enumerate(worlds):
        with span("replication", rep=rep, seed=seed, **params):
            results = run_all_trackers(scenario, tracker_names, noise_rng, faults=faults)
        for name, res in results.items():
            summary = summarize_errors(res)
            per_tracker_means[name].append(summary.mean)
            per_tracker_stds[name].append(summary.std)
            per_tracker_all_errors[name].append(res.errors)
    records = []
    for name in tracker_names:
        pooled = np.concatenate(per_tracker_all_errors[name])
        records.append(
            SweepRecord(
                tracker=name,
                params=params,
                mean_error=float(np.mean(per_tracker_means[name])),
                std_error=float(pooled.std()),
                mean_of_std=float(np.mean(per_tracker_stds[name])),
                n_reps=n_reps,
                p95_error=float(np.quantile(pooled, 0.95)) if len(pooled) else float("nan"),
                lost_track_rate=(
                    float((pooled > lost_track_threshold_m).mean()) if len(pooled) else float("nan")
                ),
                per_rep_means=tuple(per_tracker_means[name]),
            )
        )
    return records


def sweep_n_sensors(
    n_values: Sequence[int],
    tracker_names: Sequence[str],
    *,
    base_config: "SimulationConfig | None" = None,
    n_reps: int = 3,
    seed: int = 0,
) -> list[SweepRecord]:
    """Fig. 11(b,c): tracking error vs number of sensors (k=5, eps=1)."""
    base = base_config or SimulationConfig()
    records: list[SweepRecord] = []
    for i, n in enumerate(n_values):
        cfg = base.with_(n_sensors=int(n))
        records.extend(
            replicate_mean_error(
                cfg,
                tracker_names,
                n_reps=n_reps,
                seed=seed + 1000 * i,
                params={"n_sensors": int(n)},
            )
        )
    return records


def sweep_resolution(
    eps_values: Sequence[float],
    n_values: Sequence[int],
    *,
    base_config: "SimulationConfig | None" = None,
    n_reps: int = 3,
    seed: int = 0,
) -> list[SweepRecord]:
    """Fig. 12(a): FTTT error vs sensing resolution for several n (k=5)."""
    base = base_config or SimulationConfig()
    records: list[SweepRecord] = []
    # common random numbers across the eps axis (see sweep_sampling_times)
    for i, n in enumerate(n_values):
        for eps in eps_values:
            cfg = base.with_(n_sensors=int(n), resolution_dbm=float(eps))
            records.extend(
                replicate_mean_error(
                    cfg,
                    ["fttt"],
                    n_reps=n_reps,
                    seed=seed + 1000 * i,
                    params={"n_sensors": int(n), "resolution_dbm": float(eps)},
                )
            )
    return records


def sweep_sampling_times(
    k_values: Sequence[int],
    n_values: Sequence[int],
    *,
    base_config: "SimulationConfig | None" = None,
    n_reps: int = 3,
    seed: int = 0,
) -> list[SweepRecord]:
    """Fig. 12(b): FTTT error vs n for several sampling times k (eps=1)."""
    base = base_config or SimulationConfig()
    records: list[SweepRecord] = []
    # common random numbers: every k shares the same worlds per n, so the
    # k-trend is not confounded by deployment/trace luck
    for k in k_values:
        for j, n in enumerate(n_values):
            cfg = base.with_(sampling_times=int(k), n_sensors=int(n))
            records.extend(
                replicate_mean_error(
                    cfg,
                    ["fttt"],
                    n_reps=n_reps,
                    seed=seed + 97 * j,
                    params={"sampling_times": int(k), "n_sensors": int(n)},
                )
            )
    return records


def sweep_basic_vs_extended(
    n_values: Sequence[int],
    *,
    base_config: "SimulationConfig | None" = None,
    n_reps: int = 3,
    seed: int = 0,
) -> list[SweepRecord]:
    """Fig. 12(c,d): basic vs extended FTTT mean error and error std."""
    return sweep_n_sensors(
        n_values, ["fttt", "fttt-extended"], base_config=base_config, n_reps=n_reps, seed=seed
    )
