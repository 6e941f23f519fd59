"""Network substrate: sensor nodes, deployments, sampling, and faults.

Models the WSN side of the system: where sensors sit (grid / random /
cross deployments), how grouping samplings are driven at the paper's
10 Hz sampling rate through a small discrete-event scheduler, which
sensors fail to report (fault models), and how the base station
aggregates rounds.
"""

from repro.network.node import SensorNode, NodeState
from repro.network.deployment import (
    grid_deployment,
    random_deployment,
    cross_deployment,
    perturbed_grid_deployment,
    deployment_stats,
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
from repro.network.events import EventScheduler, Event
from repro.network.routing import RoutingTopology, build_routing_topology
from repro.network.duty_cycle import LinearPredictor, DutyCycleController
from repro.network.aggregation import (
    ClusterAssignment,
    assign_clusters,
    DistributedVectorAssembly,
)

__all__ = [
    "SensorNode",
    "NodeState",
    "grid_deployment",
    "random_deployment",
    "cross_deployment",
    "perturbed_grid_deployment",
    "deployment_stats",
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
    "EventScheduler",
    "Event",
    "RoutingTopology",
    "build_routing_topology",
    "LinearPredictor",
    "DutyCycleController",
    "ClusterAssignment",
    "assign_clusters",
    "DistributedVectorAssembly",
]
