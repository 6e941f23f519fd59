"""Core FTTT strategy (paper §4 and §6).

Everything specific to the Fault-Tolerant Target-Tracking contribution:
sampling-vector construction from grouping samplings (Algorithm 1, with the
fault-tolerant fill of Eq. 6), signature matching by maximum likelihood
(Definition 7), the heuristic neighbor-link matcher (Algorithm 2), and the
quantitative extension (Definition 10).
"""

from repro.core.vectors import (
    sampling_vector,
    extended_sampling_vector,
    STAR,
)
from repro.core.matching import ExhaustiveMatcher, MatchResult
from repro.core.heuristic import HeuristicMatcher
from repro.core.extended import expected_extended_signatures
from repro.core.tracker import DegradationPolicy, FTTTracker, TrackEstimate, Tracker, TrackResult
from repro.core.trajectory import (
    smooth_result,
    smoothness_metrics,
    TrajectorySmoothness,
)
from repro.core.streaming import TrackingSession, SessionState
from repro.core.diagnostics import (
    pair_informativeness,
    least_informative_pairs,
    face_separability,
    AmbiguityCensus,
    ambiguity_census,
)

__all__ = [
    "sampling_vector",
    "extended_sampling_vector",
    "STAR",
    "ExhaustiveMatcher",
    "HeuristicMatcher",
    "expected_extended_signatures",
    "MatchResult",
    "DegradationPolicy",
    "FTTTracker",
    "TrackEstimate",
    "TrackResult",
    "Tracker",
    "smooth_result",
    "smoothness_metrics",
    "TrajectorySmoothness",
    "TrackingSession",
    "SessionState",
    "pair_informativeness",
    "least_informative_pairs",
    "face_separability",
    "AmbiguityCensus",
    "ambiguity_census",
]
