"""Range-based least-squares MLE baseline.

Not one of the paper's two comparators, but the classic range-based
approach its related-work section dismisses ("additional hardware ...
careful environment profiling"): invert the path-loss model to get a
distance estimate per sensor, then solve a nonlinear least-squares
position fit.  Included to quantify how badly log-normal ranging noise
hurts when the model is inverted directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.vectors import mean_rss
from repro.core.tracker import TrackEstimate, Tracker
from repro.rf.pathloss import LogDistancePathLoss

__all__ = ["RangeMLETracker"]


class RangeMLETracker(Tracker):
    """Weighted nonlinear least squares on inverted-path-loss ranges.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    pathloss : the propagation model to invert (assumed perfectly known —
        an *optimistic* assumption real deployments cannot make).
    field_size : estimates are clipped into the field.

    Rounds with fewer than ``min_sensors`` = 3 reporting sensors fall back
    to the weighted sensor centroid.
    """

    min_sensors = 3

    def __init__(
        self,
        nodes: np.ndarray,
        pathloss: LogDistancePathLoss,
        *,
        field_size: float = 100.0,
    ) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)
        self.pathloss = pathloss
        self.field_size = field_size

    def _estimate(self, means: np.ndarray) -> np.ndarray:
        ok = ~np.isnan(means)
        nodes = self.nodes[ok]
        if ok.sum() == 0:
            return np.full(2, self.field_size / 2.0)
        ranges = self.pathloss.distance_from_rss(means[ok])
        weights = 1.0 / np.maximum(ranges, 1.0)  # nearer sensors are more informative
        x0 = (nodes * weights[:, None]).sum(axis=0) / weights.sum()
        if ok.sum() < self.min_sensors:
            return np.clip(x0, 0.0, self.field_size)

        from scipy.optimize import least_squares

        def residuals(p: np.ndarray) -> np.ndarray:
            d = np.hypot(nodes[:, 0] - p[0], nodes[:, 1] - p[1])
            return weights * (d - ranges)

        sol = least_squares(
            residuals,
            x0,
            bounds=([0.0, 0.0], [self.field_size, self.field_size]),
            xtol=1e-8,
            max_nfev=200,
        )
        return sol.x

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self._as_rss(rss)
        return TrackEstimate(
            t=t,
            position=self._estimate(mean_rss(rss)),
            face_ids=np.array([-1]),  # no face semantics for a range method
            sq_distance=float("nan"),
            n_reporting=self._n_reporting(rss),
            visited_faces=0,
        )
