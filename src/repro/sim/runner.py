"""Tracking-run driver.

Generates the stream of grouping samplings along a scenario's mobility
trace — applying fault models and base-station packet loss — and feeds it
to trackers.  All trackers in one call see the *same* batches (same noise
draws), so differences in their output are purely algorithmic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.tracker import TrackResult
from repro.network.basestation import BaseStation
from repro.network.faults import FaultModel
from repro.obs import metrics as obs
from repro.rf.channel import SampleBatch
from repro.rng import ensure_rng
from repro.sim.scenario import Scenario

__all__ = [
    "generate_batches",
    "run_tracking",
    "run_all_trackers",
    "run_tracking_with_duty_cycle",
]


def generate_batches(
    scenario: Scenario,
    rng: "np.random.Generator | int | None" = None,
    *,
    faults: FaultModel | None = None,
    basestation: BaseStation | None = None,
    n_rounds: "int | None" = None,
) -> list[SampleBatch]:
    """Materialize every localization round of a tracking run.

    Rounds are spaced by the grouping duration (k samples at the sampling
    rate); each applies the fault model's drop mask, then any value
    corruption it defines (``corrupt``), and finally, if a base station
    is given, its uplink packet loss.  Geometry-aware fault models
    (``bind``) are bound to the scenario's deployment first.
    """
    rng = ensure_rng(rng)
    cfg = scenario.config
    if n_rounds is None:
        n_rounds = cfg.n_localizations
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    period = scenario.sampler.group_duration_s
    record = obs.enabled()
    has_drop = faults is not None and hasattr(faults, "drop_mask")
    has_value = faults is not None and hasattr(faults, "corrupt")
    if faults is not None and hasattr(faults, "bind"):
        faults.bind(scenario.nodes)  # geometry-aware models (RegionalOutage)
    batches: list[SampleBatch] = []
    for r in range(n_rounds):
        t0 = r * period
        drop = faults.drop_mask(scenario.n_sensors, r, rng) if has_drop else None
        if record and drop is not None:
            obs.counter("faults.rounds").inc()
            obs.histogram("faults.dropped_sensors").observe(int(drop.sum()))
        batch = scenario.sampler.sample_group(scenario.mobility.position, t0, rng, drop_mask=drop)
        if has_value:
            corrupted = faults.corrupt(batch.rss, r, rng)
            if corrupted is not batch.rss:
                if record:
                    obs.counter("faults.value_rounds").inc()
                batch = SampleBatch(
                    rss=corrupted, times=batch.times, positions=batch.positions
                )
        if basestation is not None:
            rnd = basestation.aggregate(batch, t0, rng)
            batch = SampleBatch(rss=rnd.effective_rss, times=batch.times, positions=batch.positions)
        batches.append(batch)
    if record:
        obs.counter("runner.rounds").inc(n_rounds)
    return batches


def run_tracking(
    scenario: Scenario,
    tracker,
    rng: "np.random.Generator | int | None" = None,
    *,
    faults: FaultModel | None = None,
    basestation: BaseStation | None = None,
) -> TrackResult:
    """Run one tracker over the scenario's whole batch stream."""
    batches = generate_batches(scenario, rng, faults=faults, basestation=basestation)
    tracker.reset()
    return tracker.track(batches)


def run_tracking_with_duty_cycle(
    scenario: Scenario,
    tracker,
    controller,
    rng: "np.random.Generator | int | None" = None,
):
    """Closed-loop tracking with duty-cycled sensing.

    Each round the controller decides who sleeps (from its prediction of
    the target), the sleepers appear as non-reporters (Eq. 6 handles
    them), and the resulting estimate feeds the controller's predictor.

    Returns ``(TrackResult, controller)`` — the controller carries the
    duty-cycle statistics.
    """
    rng = ensure_rng(rng)
    n_rounds = scenario.config.n_localizations
    period = scenario.sampler.group_duration_s
    tracker.reset()
    controller.reset()
    result = TrackResult()
    for r in range(n_rounds):
        t0 = r * period
        sleep = controller.sleep_mask(t0)
        batch = scenario.sampler.sample_group(
            scenario.mobility.position, t0, rng, drop_mask=sleep
        )
        est = tracker.localize_batch(batch)
        controller.update(t0, est.position)
        result.append(est, batch.mean_position)
    return result, controller


def run_all_trackers(
    scenario: Scenario,
    tracker_names: Sequence[str],
    rng: "np.random.Generator | int | None" = None,
    *,
    faults: FaultModel | None = None,
    n_rounds: "int | None" = None,
) -> Mapping[str, TrackResult]:
    """Run several trackers over the *same* batch stream (shared noise)."""
    batches = generate_batches(scenario, rng, faults=faults, n_rounds=n_rounds)
    results: dict[str, TrackResult] = {}
    for name in tracker_names:
        tracker = scenario.make_tracker(name)
        tracker.reset()
        results[name] = tracker.track(batches)
    return results
