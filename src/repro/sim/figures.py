"""Model-mode figure data for the CLI.

``fttt fig12a`` prints the Fig. 12(a) resolution series from
:func:`fig12a_series`, one :func:`model_mode_error` replication loop per
point (rep seeds ``seed + 31 * rep``).  ``fttt fig12b`` runs the
physical-channel sweep (``sim.experiments.sweep_sampling_times``) instead.
The benchmark harness does not call this module:
``benchmarks/test_fig12a_resolution.py`` and
``benchmarks/test_fig12b_sampling_times.py`` keep their own loops and
seed schedules (``7 * rep`` and ``13 * rep``), so their committed CSVs do
not follow from these generators.  Results are plain floats and nested
dicts, ready to print, assert or serialize.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.apollonius import uncertainty_constant
from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.mobility.waypoint import RandomWaypoint
from repro.network.deployment import random_deployment
from repro.sim.modelmode import ModelSampler, run_model_tracking

__all__ = ["model_mode_error", "fig12a_series"]


def model_mode_error(
    *,
    n_sensors: int,
    eps: float = 1.0,
    k: int = 5,
    n_reps: int = 5,
    seed: int = 0,
    field_size: float = 100.0,
    sensing_range: float = 40.0,
    beta: float = 4.0,
    sigma: float = 6.0,
    duration_s: float = 30.0,
    cell_size: float = 2.5,
) -> float:
    """Mean tracking error under the paper's flip-model semantics.

    One replication = fresh random deployment + random-waypoint trace +
    model-mode observations, matched against the Eq. 3 face map built with
    the same epsilon.
    """
    if n_reps < 1:
        raise ValueError(f"need at least one replication, got {n_reps}")
    c = uncertainty_constant(eps, beta, sigma)
    errs = []
    for rep in range(n_reps):
        rep_seed = seed + 31 * rep
        nodes = random_deployment(n_sensors, field_size, rep_seed, min_separation=4.0)
        fm = build_face_map(
            nodes, Grid.square(field_size, cell_size), c, sensing_range=sensing_range
        )
        mob = RandomWaypoint(field_size=field_size, duration_s=duration_s, seed=rep_seed + 1)
        times = np.arange(int(duration_s * 2)) * 0.5
        sampler = ModelSampler(nodes, c, k=k, sensing_range=sensing_range)
        errs.append(
            run_model_tracking(fm, sampler, mob.position(times), times, rep_seed + 2).mean_error
        )
    return float(np.mean(errs))


def fig12a_series(
    eps_values: Sequence[float],
    n_values: Sequence[int],
    *,
    k: int = 5,
    n_reps: int = 5,
    seed: int = 0,
    **kwargs,
) -> dict[int, list[float]]:
    """Fig. 12(a): per-n error series over the resolution axis."""
    if not eps_values or not n_values:
        raise ValueError("need at least one eps and one n value")
    return {
        int(n): [
            model_mode_error(n_sensors=int(n), eps=float(e), k=k, n_reps=n_reps, seed=seed, **kwargs)
            for e in eps_values
        ]
        for n in n_values
    }
