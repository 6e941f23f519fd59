"""Baseline trackers the paper compares FTTT against (§7).

* :class:`DirectMLETracker` — "Direct MLE [24]": each localization's
  detection node sequence is matched independently against the
  bisector-face sequence table (sequence-based localization).
* :class:`PathMatchingTracker` — "PM [22]": sequence matching plus an
  optimal path over the face graph under a maximum-velocity constraint.
* :class:`RangeMLETracker` — classic range-based least-squares MLE from
  inverted path loss (not in the paper's comparison; a sanity baseline).
* :class:`NearestNodeTracker` — weakest possible baseline: snap to the
  loudest sensor.
"""

from repro.baselines.direct_mle import DirectMLETracker
from repro.baselines.path_matching import PathMatchingTracker
from repro.baselines.range_mle import RangeMLETracker
from repro.baselines.nearest import NearestNodeTracker
from repro.baselines.weighted_centroid import WeightedCentroidTracker
from repro.baselines.pknn import PkNNTracker
from repro.baselines.kalman import KalmanTracker
from repro.baselines.particle import ParticleFilterTracker

__all__ = [
    "DirectMLETracker",
    "PathMatchingTracker",
    "RangeMLETracker",
    "NearestNodeTracker",
    "WeightedCentroidTracker",
    "PkNNTracker",
    "KalmanTracker",
    "ParticleFilterTracker",
]
