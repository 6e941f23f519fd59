"""Direct MLE baseline (paper's "[24]" comparator).

Sequence-based localization: the field is divided by perpendicular
bisectors only (every comparison assumed reliable), each face carries the
ideal detection sequence of its region, and each localization round is
matched *independently* — no use of uncertainty, no temporal coupling.
This is precisely the strategy §3.2 shows breaking down: near bisectors
the observed sequence flips, and the matched face jumps around.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.baselines.sequences import sign_vector_from_rss, sign_vectors_from_rss
from repro.core.matching import ExhaustiveMatcher, MatchResult
from repro.core.tracker import TrackEstimate, Tracker, TrackResult
from repro.geometry.faces import FaceMap
from repro.geometry.primitives import enumerate_pairs
from repro.obs import metrics as obs
from repro.rf.channel import SampleBatch

__all__ = ["DirectMLETracker"]


class DirectMLETracker(Tracker):
    """Independent per-round sequence matching over the certain face map.

    Parameters
    ----------
    face_map : a *certain* face map
        (:func:`repro.geometry.faces.build_certain_face_map`).

    Each grouping sampling collapses to one detection sequence by averaging
    the group: the strongest fair reading of the data FTTT sees.
    """

    _rounds_counter = "baselines.direct_mle.rounds"

    def __init__(self, face_map: FaceMap) -> None:
        self.face_map = face_map
        self.n_sensors = face_map.n_nodes
        self._pairs = enumerate_pairs(face_map.n_nodes)
        self._matcher = ExhaustiveMatcher(face_map)

    def build_vector(self, rss: np.ndarray) -> np.ndarray:
        """Pairwise sign vector of one round (``(k, n)`` group or ``(n,)`` row)."""
        return sign_vector_from_rss(rss, self._pairs)

    def build_vectors(self, rss_stack: np.ndarray) -> np.ndarray:
        """``(T, k, n)`` round stack -> ``(T, P)`` pairwise sign vectors."""
        return sign_vectors_from_rss(rss_stack, self._pairs)

    def _estimate(self, t: float, rss: np.ndarray, match: MatchResult) -> TrackEstimate:
        return TrackEstimate(
            t=t,
            position=match.position,
            face_ids=match.face_ids,
            sq_distance=match.sq_distance,
            n_reporting=self._n_reporting(rss),
            visited_faces=match.visited,
        )

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self._as_rss(rss)
        match = self._matcher.match(self.build_vector(rss))
        if obs.enabled():
            obs.counter(self._rounds_counter).inc()
        return self._estimate(t, rss, match)

    def track(self, batches: Iterable[SampleBatch]) -> TrackResult:
        """Localize the whole trace in one batched kernel call.

        Rounds are matched independently (that is the point of this
        baseline), so the per-round loop collapses into the trace's sign
        vectors plus one GEMM match, row-identical to :meth:`localize`.
        """
        batches = list(batches)
        result = TrackResult()
        if not batches:
            return result
        rounds, vectors = self._trace_vectors(batches)
        matches = self._matcher.match_many(vectors)
        if obs.enabled():
            obs.counter(self._rounds_counter).inc(len(batches))
        for batch, rss, match in zip(batches, rounds, matches):
            result.append(self._estimate(float(batch.times[0]), rss, match), batch.mean_position)
        return result
