"""PM baseline: optimal path matching with MLE (paper's "[22]" comparator).

Per-round detection sequences are matched like Direct MLE, but instead of
committing to each round's best face independently, PM finds the *path*
of faces maximizing total sequence likelihood subject to a maximum-velocity
reachability constraint — a Viterbi decoding over the face graph.

The full DP over all O(n^4) faces is quadratic in the face count per step;
like the original system, we restrict each step to a beam of the top-B
faces by emission score (documented approximation; B = 48).
The max-velocity assumption is exactly the "extra imposed condition" the
paper criticizes PM for needing.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.baselines.direct_mle import DirectMLETracker
from repro.core.tracker import TrackEstimate, TrackResult
from repro.geometry.faces import FaceMap
from repro.obs import metrics as obs
from repro.rf.channel import SampleBatch

__all__ = ["PathMatchingTracker"]


class PathMatchingTracker(DirectMLETracker):
    """Viterbi path matching over the certain face map.

    Vectors and single-round :meth:`localize` are Direct MLE's (one round
    has no path); :meth:`track` decodes the whole trace offline.

    Parameters
    ----------
    face_map : a certain (bisector) face map.
    vmax_mps : assumed maximum target speed (the constraint PM requires).
    """

    beam_width = 48  # candidate faces kept per round
    # score penalty per metre of transition distance beyond the reachable
    # radius (soft constraint; decoding never dead-ends), and its cap
    penalty_per_m = 1.0
    unreachable_penalty = 50.0

    def __init__(self, face_map: FaceMap, *, vmax_mps: float = 5.0) -> None:
        if vmax_mps <= 0:
            raise ValueError(f"vmax must be positive, got {vmax_mps}")
        super().__init__(face_map)
        self.vmax_mps = vmax_mps
        # equivalent face radius: how far inside a face the target may sit
        areas = face_map.cell_counts * face_map.grid.cell_size**2
        self._face_radius = np.sqrt(areas / np.pi)

    # -- path decoding ---------------------------------------------------------

    def _decode(
        self, times: "list[float]", vectors: np.ndarray
    ) -> "tuple[list[int], np.ndarray, int]":
        """Viterbi over per-round beams: the decoded face of every round, the
        ``(T, F)`` squared vector distances and the beam width."""
        fm = self.face_map
        # batched emissions: one GEMM for the whole trace instead of a
        # distances_to call per round (bit-identical; see distances_to_many)
        d2 = fm.distances_to_many(vectors)  # (T, F)
        width = min(self.beam_width, fm.n_faces)
        beams = [np.argpartition(row, width - 1)[:width] for row in d2]
        # emission score: negative squared vector distance (log-likelihood shape)
        scores_list = [-row[beam] for row, beam in zip(d2, beams)]

        # Viterbi over beams
        total = scores_list[0].copy()
        backptr: list[np.ndarray] = []
        for step in range(1, len(times)):
            prev_beam, beam = beams[step - 1], beams[step]
            dt = max(times[step] - times[step - 1], 1e-9)
            reach = (
                self.vmax_mps * dt
                + self._face_radius[prev_beam][:, None]
                + self._face_radius[beam][None, :]
            )
            diff = fm.centroids[prev_beam][:, None, :] - fm.centroids[beam][None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            # smooth penalty growing with the distance exceeding reachability;
            # keeps decoding from dead-ending while still discouraging jumps
            excess = np.maximum(dist - reach, 0.0)
            trans = -np.minimum(self.penalty_per_m * excess, self.unreachable_penalty)
            cand = total[:, None] + trans  # (prev, cur)
            best_prev = np.argmax(cand, axis=0)
            total = cand[best_prev, np.arange(len(beam))] + scores_list[step]
            backptr.append(best_prev)

        # backtrack
        idx = int(np.argmax(total))
        path_rev = [int(beams[-1][idx])]
        for step in range(len(times) - 1, 0, -1):
            idx = int(backptr[step - 1][idx])
            path_rev.append(int(beams[step - 1][idx]))
        return path_rev[::-1], d2, width

    def track(self, batches: Iterable[SampleBatch]) -> TrackResult:
        """Offline optimal-path decoding over the whole trace."""
        batches = list(batches)
        result = TrackResult()
        if not batches:
            return result
        rounds, vectors = self._trace_vectors(batches)
        times = [float(b.times[0]) for b in batches]
        path, d2, width = self._decode(times, vectors)
        if obs.enabled():
            obs.counter("baselines.pm.rounds").inc(len(batches))
            obs.histogram("baselines.pm.beam_width").observe(width)
        for step, (batch, rss, fid) in enumerate(zip(batches, rounds, path)):
            est = TrackEstimate(
                t=times[step],
                position=self.face_map.centroids[fid].copy(),
                face_ids=np.array([fid]),
                sq_distance=float(d2[step, fid]),
                n_reporting=self._n_reporting(rss),
                visited_faces=width * len(batches),
            )
            result.append(est, batch.mean_position)
        return result
