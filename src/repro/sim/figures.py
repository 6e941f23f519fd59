"""Model-mode figure data: the one replication loop of Fig. 12(a)/(b).

:func:`model_mode_error` runs the paper's flip-model semantics (§5.1)
over one world per replication seed; :func:`fig12a_series` sweeps it over
the resolution axis.  Every caller states its own seed schedule:
``fttt fig12a`` passes ``seed + 31 * r``,
``benchmarks/test_fig12a_resolution.py`` calls :func:`fig12a_series`
with ``7 * r`` (r < 6) and ``benchmarks/test_fig12b_sampling_times.py``
calls :func:`model_mode_error` with ``13 * r`` (r < 5), so the committed
``fig12a.csv`` and ``fig12b.csv`` follow from this module.  ``fttt
fig12b`` runs the physical-channel sweep
(``sim.experiments.sweep_sampling_times``) instead.  Results are plain
floats and nested dicts, ready to print, assert or serialize.
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
    rep_seeds: Sequence[int],
    eps: float = 1.0,
    k: int = 5,
) -> float:
    """Mean tracking error under the paper's flip-model semantics.

    One replication per entry of *rep_seeds*: with seed ``s``, a random
    deployment drawn from ``s``, a random-waypoint trace from ``s + 1`` and
    model-mode observations from ``s + 2``, matched against the Eq. 3 face
    map built with the same epsilon.  The world is Table 1's: a 100 m
    field, R = 40 m, beta = 4, sigma = 6 dB, a 30 s trace, 2.5 m cells.
    """
    if len(rep_seeds) < 1:
        raise ValueError("need at least one replication seed")
    field_size, sensing_range, duration_s = 100.0, 40.0, 30.0
    c = uncertainty_constant(eps, 4.0, 6.0)
    errs = []
    for rep_seed in rep_seeds:
        nodes = random_deployment(n_sensors, field_size, rep_seed, min_separation=4.0)
        fm = build_face_map(
            nodes, Grid.square(field_size, 2.5), c, sensing_range=sensing_range
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
    rep_seeds: Sequence[int],
) -> dict[int, list[float]]:
    """Fig. 12(a): per-n error series over the resolution axis (k = 5)."""
    if not eps_values or not n_values:
        raise ValueError("need at least one eps and one n value")
    return {
        int(n): [
            model_mode_error(n_sensors=int(n), eps=float(e), rep_seeds=rep_seeds)
            for e in eps_values
        ]
        for n in n_values
    }
