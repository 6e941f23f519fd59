"""Exhaustive maximum-likelihood matching (paper §4.4-1).

Scans every face signature and returns all faces tying at the maximum
similarity.  O(F · P) per localization with F = O(n^4) faces — correct but
slow; Algorithm 2's heuristic matcher exists to avoid this scan, and the
complexity benchmark measures the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.faces import FaceMap

__all__ = ["MatchResult", "ExhaustiveMatcher"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one sampling vector against the face map."""

    face_ids: np.ndarray  # all faces at the maximum similarity
    sq_distance: float  # squared vector distance at the optimum
    position: np.ndarray  # mean centroid of the tied faces
    visited: int  # how many face signatures were examined

    @property
    def face_id(self) -> int:
        """Lowest-id best face (deterministic tie representative)."""
        return int(self.face_ids[0])


def _tied_result(
    face_map: FaceMap, face_ids: np.ndarray, sq_distance: float, visited: int
) -> MatchResult:
    """The match at the mean centroid of the tied *face_ids* (a lone face's
    own centroid, which that mean equals bit for bit)."""
    centroids = face_map.centroids
    if len(face_ids) == 1:
        position = centroids[face_ids[0]].copy()
    else:
        position = centroids[face_ids].mean(axis=0)
    return MatchResult(face_ids=face_ids, sq_distance=sq_distance, position=position, visited=visited)


class ExhaustiveMatcher:
    """Stateless full-scan matcher over a face map.

    ``soft=True`` matches against the attached quantitative signatures
    (extended FTTT, §6) instead of the qualitative {-1, 0, +1} ones.
    """

    def __init__(self, face_map: FaceMap, *, soft: bool = False) -> None:
        self.face_map = face_map
        self.soft = soft

    def match(self, vector: np.ndarray, start_face: "int | None" = None) -> MatchResult:
        """Match *vector* against every face (``start_face`` is ignored;
        accepted so exhaustive and heuristic matchers are interchangeable)."""
        face_ids, d2 = self.face_map.match(vector, soft=self.soft)
        return _tied_result(self.face_map, face_ids, d2, self.face_map.n_faces)

    def match_many(self, vectors: np.ndarray) -> list[MatchResult]:
        """Match a whole ``(B, P)`` batch of vectors in one kernel call.

        Row ``b`` of the result is bit-identical to ``match(vectors[b])``
        (see :meth:`repro.geometry.faces.FaceMap.distances_to_many`); the
        batch trades the per-round Python loop for one GEMM over the
        signature matrix.
        """
        ties, bests = self.face_map.match_many(vectors, soft=self.soft)
        n_faces = self.face_map.n_faces
        return [_tied_result(self.face_map, t, float(b), n_faces) for t, b in zip(ties, bests)]

    def reset(self) -> None:
        """No state to clear; present for interface parity."""
