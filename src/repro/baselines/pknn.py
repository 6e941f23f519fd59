"""Probabilistic k-nearest-neighbours tracker (PkNN-inspired, paper ref [8]).

Ren et al.'s PkNN retrieves, under measurement uncertainty, the sensors
most probably nearest the target and localizes from them.  This
implementation estimates each sensor's probability of being among the
k loudest from the grouping sampling (per-sample rank votes), then places
the target at the probability-weighted centroid of the candidates — an
uncertainty-aware baseline that, unlike FTTT, throws away the pairwise
*structure* of the flips.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracker import TrackEstimate, Tracker

__all__ = ["PkNNTracker"]


class PkNNTracker(Tracker):
    """Probability-weighted centroid of the probably-k-nearest sensors.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    k_neighbors : how many nearest sensors to aggregate over.
    min_prob : candidates below this inclusion probability are dropped.
    """

    def __init__(self, nodes: np.ndarray, *, k_neighbors: int = 4, min_prob: float = 0.05) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)
        if k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
        if not (0.0 <= min_prob < 1.0):
            raise ValueError(f"min_prob must be in [0, 1), got {min_prob}")
        self.k_neighbors = min(k_neighbors, len(self.nodes))
        self.min_prob = min_prob

    def membership_probabilities(self, rss: np.ndarray) -> np.ndarray:
        """P(sensor is among the k loudest), estimated by per-sample votes."""
        rss = np.atleast_2d(np.asarray(rss, dtype=float))
        k_samples, n = rss.shape
        votes = np.zeros(n)
        valid_samples = 0
        for row in rss:
            heard = ~np.isnan(row)
            if heard.sum() == 0:
                continue
            valid_samples += 1
            k_here = min(self.k_neighbors, int(heard.sum()))
            order = np.argsort(-np.where(heard, row, -np.inf))
            votes[order[:k_here]] += 1.0
        if valid_samples == 0:
            return np.zeros(n)
        return votes / valid_samples

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self._as_rss(rss)
        probs = self.membership_probabilities(rss)
        candidates = probs > self.min_prob
        if not candidates.any():
            position = self.nodes.mean(axis=0)
        else:
            w = probs[candidates]
            position = (self.nodes[candidates] * w[:, None]).sum(axis=0) / w.sum()
        return TrackEstimate(
            t=t,
            position=position,
            face_ids=np.array([-1]),
            sq_distance=float("nan"),
            n_reporting=self._n_reporting(rss),
            visited_faces=0,
        )
