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

    It aggregates over the ``k_neighbors`` = 4 loudest sensors (one fewer
    than the sensors when there are 4 or fewer: with every heard sensor a
    member, each would have inclusion probability 1 and the estimate
    would be the plain centroid) and drops candidates whose inclusion
    probability is at most 0.05.
    """

    min_prob = 0.05

    def __init__(self, nodes: np.ndarray) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)
        self.k_neighbors = max(1, min(4, len(self.nodes) - 1))

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
