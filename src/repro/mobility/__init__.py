"""Mobility substrate: target motion models.

Provides the random-waypoint model the paper generates traces with
(ref [30]), plus deterministic piecewise-linear paths including the
"⌐"-shaped outdoor trace of Fig. 13.
"""

from repro.mobility.base import MobilityModel, StationaryTarget
from repro.mobility.waypoint import RandomWaypoint
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.paths import PiecewiseLinearPath, l_shape_path

__all__ = [
    "MobilityModel",
    "StationaryTarget",
    "RandomWaypoint",
    "GaussMarkov",
    "PiecewiseLinearPath",
    "l_shape_path",
]
