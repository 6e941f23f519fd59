"""Nearest-node baseline: snap to the loudest sensor.

The weakest meaningful tracker — its error floor is set entirely by the
deployment density, making it a useful yardstick in benchmark tables.
"""

from __future__ import annotations

import numpy as np

from repro.core.vectors import mean_rss
from repro.core.tracker import TrackEstimate, Tracker

__all__ = ["NearestNodeTracker"]


class NearestNodeTracker(Tracker):
    """Estimate = position of the sensor with the highest mean RSS."""

    def __init__(self, nodes: np.ndarray) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self._as_rss(rss)
        means = mean_rss(rss)
        if np.isnan(means).all():
            position = self.nodes.mean(axis=0)  # nobody heard anything
            loudest = -1
        else:
            loudest = int(np.nanargmax(means))
            position = self.nodes[loudest].copy()
        return TrackEstimate(
            t=t,
            position=position,
            face_ids=np.array([loudest]),
            sq_distance=float("nan"),
            n_reporting=self._n_reporting(rss),
            visited_faces=0,
        )
