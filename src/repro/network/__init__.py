"""Network substrate: deployments, sampling, faults and the base station.

Models the WSN side of the system: where sensors sit (grid / random /
cross deployments), when each grouping sampling takes its samples at
the paper's 10 Hz sampling rate, which sensors fail to report (fault
models), and how the base station aggregates rounds.
"""

from repro.network.deployment import (
    grid_deployment,
    random_deployment,
    cross_deployment,
    perturbed_grid_deployment,
)
from repro.network.sensing import GroupSampler
from repro.network.faults import (
    FaultModel,
    ValueFaultModel,
    NoFaults,
    IndependentDropout,
    CrashFailures,
    IntermittentFaults,
    RegionalOutage,
    Schedule,
    StuckReading,
    ByzantineRSS,
    CalibrationDrift,
    CompositeFaults,
)
from repro.network.basestation import BaseStation, LocalizationRound
from repro.network.routing import RoutingTopology, build_routing_topology
from repro.network.duty_cycle import LinearPredictor, DutyCycleController
from repro.network.aggregation import (
    ClusterAssignment,
    assign_clusters,
    DistributedVectorAssembly,
)

__all__ = [
    "grid_deployment",
    "random_deployment",
    "cross_deployment",
    "perturbed_grid_deployment",
    "GroupSampler",
    "FaultModel",
    "ValueFaultModel",
    "NoFaults",
    "IndependentDropout",
    "CrashFailures",
    "IntermittentFaults",
    "RegionalOutage",
    "Schedule",
    "StuckReading",
    "ByzantineRSS",
    "CalibrationDrift",
    "CompositeFaults",
    "BaseStation",
    "LocalizationRound",
    "RoutingTopology",
    "build_routing_topology",
    "LinearPredictor",
    "DutyCycleController",
    "ClusterAssignment",
    "assign_clusters",
    "DistributedVectorAssembly",
]
