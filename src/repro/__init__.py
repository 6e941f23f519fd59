"""repro — Fault-Tolerant Target Tracking under unreliable sensing.

A complete, from-scratch reproduction of

    Xie, Tang, Wang, Xiao, Tang & Tang,
    "Rethinking of the Uncertainty: A Fault-Tolerant Target-Tracking
    Strategy Based on Unreliable Sensing in Wireless Sensor Networks"
    (2012; preliminary version at IEEE IPDPS HPDIC Workshop 2012).

Quickstart
----------
>>> from repro import SimulationConfig, make_scenario, run_all_trackers
>>> scenario = make_scenario(SimulationConfig(n_sensors=10), seed=42)
>>> results = run_all_trackers(scenario, ["fttt", "pm", "direct-mle"], 43)

Package layout
--------------
``repro.core``      — the FTTT strategy (sampling vectors, matching, tracker)
``repro.geometry``  — uncertain boundaries, grid division, face maps
``repro.rf``        — path-loss / noise / acoustic channels
``repro.network``   — deployments, grouping sampling, faults, base station
``repro.mobility``  — random waypoint and deterministic paths
``repro.baselines`` — eight baselines: PM, Direct MLE, range MLE, PkNN,
                      weighted centroid, Kalman and particle filters,
                      nearest node
``repro.analysis``  — §5 formulas and tracking metrics
``repro.sim``       — scenarios, runners, replicated sweeps
``repro.testbed``   — the simulated outdoor IRIS-mote system
"""

from repro.config import PaperDefaults, SimulationConfig, GridConfig
from repro.core import (
    FTTTracker,
    TrackEstimate,
    TrackResult,
    sampling_vector,
    extended_sampling_vector,
)
from repro.geometry import (
    Grid,
    FaceMap,
    build_face_map,
    uncertainty_constant,
)
from repro.sim import (
    Scenario,
    make_scenario,
    run_tracking,
    run_all_trackers,
    generate_batches,
)
from repro.analysis import summarize_errors, required_sampling_times

__version__ = "1.0.0"

__all__ = [
    "PaperDefaults",
    "SimulationConfig",
    "GridConfig",
    "FTTTracker",
    "TrackEstimate",
    "TrackResult",
    "sampling_vector",
    "extended_sampling_vector",
    "Grid",
    "FaceMap",
    "build_face_map",
    "uncertainty_constant",
    "Scenario",
    "make_scenario",
    "run_tracking",
    "run_all_trackers",
    "generate_batches",
    "summarize_errors",
    "required_sampling_times",
    "__version__",
]
