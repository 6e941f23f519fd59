"""Simulation harness: scenarios, runs, and replicated experiments.

Glues the substrates together: a :class:`Scenario` is a deployment, a
channel, a mobility trace, and the face maps; :func:`run_tracking`
generates the grouping-sampling stream and drives any tracker over it;
``experiments`` provides the replicated sweeps behind every figure.
"""

from repro.sim.scenario import Scenario, make_scenario, TRACKER_NAMES
from repro.sim.runner import (
    generate_batches,
    run_tracking,
    run_all_trackers,
    run_tracking_with_duty_cycle,
)
from repro.sim.experiments import (
    SweepRecord,
    replicate_mean_error,
    sweep_n_sensors,
    sweep_resolution,
    sweep_sampling_times,
    sweep_basic_vs_extended,
)
from repro.sim.io import records_to_csv
from repro.sim.modelmode import ModelSampler, run_model_tracking
from repro.sim.ablations import (
    ablate_uncertainty_constant,
    ablate_matcher_hops,
    ablate_soft_signatures,
    ablate_noise_structure,
)
from repro.sim.parallel import parallel_sweep, recommended_workers
from repro.sim.presets import PRESETS, list_presets, make_preset

__all__ = [
    "Scenario",
    "make_scenario",
    "TRACKER_NAMES",
    "generate_batches",
    "run_tracking",
    "run_all_trackers",
    "run_tracking_with_duty_cycle",
    "SweepRecord",
    "replicate_mean_error",
    "sweep_n_sensors",
    "sweep_resolution",
    "sweep_sampling_times",
    "sweep_basic_vs_extended",
    "records_to_csv",
    "ModelSampler",
    "run_model_tracking",
    "ablate_uncertainty_constant",
    "ablate_matcher_hops",
    "ablate_soft_signatures",
    "ablate_noise_structure",
    "parallel_sweep",
    "recommended_workers",
    "PRESETS",
    "list_presets",
    "make_preset",
]
