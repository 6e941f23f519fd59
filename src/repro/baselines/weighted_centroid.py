"""Weighted-centroid localization (WCL) baseline.

The classic cheap range-free estimator: the position estimate is the
centroid of the hearing sensors, weighted by their linearized received
power.  No model inversion, no faces — a robustness yardstick
between nearest-node and the model-based trackers.
"""

from __future__ import annotations

import numpy as np

from repro.core.vectors import mean_rss
from repro.core.tracker import TrackEstimate, Tracker

__all__ = ["WeightedCentroidTracker"]


class WeightedCentroidTracker(Tracker):
    """Estimate = sum_i w_i x_i / sum_i w_i with w_i = linear power.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    """

    def __init__(self, nodes: np.ndarray) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self._as_rss(rss)
        means = mean_rss(rss)
        heard = ~np.isnan(means)
        if not heard.any():
            position = self.nodes.mean(axis=0)
        else:
            # linearize dBm relative to the loudest to avoid overflow
            rel = means[heard] - np.nanmax(means)
            weights = 10.0 ** (rel / 10.0)
            weights = np.maximum(weights, 1e-12)
            position = (self.nodes[heard] * weights[:, None]).sum(axis=0) / weights.sum()
        return TrackEstimate(
            t=t,
            position=position,
            face_ids=np.array([-1]),
            sq_distance=float("nan"),
            n_reporting=int(heard.sum()),
            visited_faces=0,
        )
