"""Heuristic matching over neighbor-face links (Algorithm 2, Theorem 1).

Faces divided by uncertain boundaries are not isolated.  Theorem 1 says
neighbors differ by exactly one unit in one signature component, so
similarity is locally smooth over the face adjacency graph and matching
can hill-climb from the previous localization's face instead of scanning
all O(n^4) signatures.  Consecutive tracking steps start where the last
one ended, which keeps searches to a handful of rounds (paper §4.4-2).

On our grid-approximated face maps Theorem 1 mostly does not hold.  With
the default ``SimulationConfig``, 1 m cells and seed 1, only 34 % / 8 % /
1 % of adjacency edges differ in a single component at n = 20 / 50 / 100
sensors; neighbors differ in 7.7 / 23.9 / 92.9 components on average
(2-4 % of the P pairs).  The climb therefore scores every ring face with
the full masked distance (``FaceMap._sq_distances`` over the ring's face
ids) rather than with a unit-step update.

Hill climbing can stall in a local optimum if the target jumped far or the
sampling vector is badly corrupted; ``fallback`` optionally detects a poor
local optimum and re-runs the exhaustive scan, preserving Algorithm 2's
speed in the common case without sacrificing worst-case accuracy.  The
gate that calls a local optimum poor scales with P (see
:func:`default_fallback_gate`): in the traced ``perfbench`` online-fttt
workload (default ``fttt`` tracker, n = 40, seed 7) 0.7 % of climbs fall
back, and a round scores 106 faces on average.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ExhaustiveMatcher, MatchResult
from repro.geometry.faces import FaceMap
from repro.obs import metrics as obs

__all__ = ["HeuristicMatcher", "default_fallback_gate"]


def default_fallback_gate(n_pairs: int, *, soft: bool = False) -> float:
    """Default fallback gate: 0.1 * P squared-distance units, 0.2 * P for
    soft signatures.

    The best reachable squared distance grows with the P = C(n, 2) pair
    components, so an absolute gate that suits a small deployment sends
    nearly every climb to the full scan at n = 40.  Soft matching carries
    a fractional background distance on every pair, hence twice the gate.
    """
    return (0.2 if soft else 0.1) * n_pairs


class HeuristicMatcher:
    """Stateful neighbor-link matcher (Algorithm 2).

    Parameters
    ----------
    face_map : the divided monitor area.
    hops : search ring per climb step; 1 is Algorithm 2 verbatim, 2
        (default) also examines neighbors-of-neighbors, which escapes the
        single-face local optima noisy sampling vectors create while still
        visiting a tiny fraction of the face set.
    fallback : when True (default), a local optimum whose squared distance
        exceeds ``fallback_sq_distance`` triggers one exhaustive re-match.
    fallback_sq_distance : quality gate for the fallback, in squared
        vector-distance units.  ``None`` (default) takes
        :func:`default_fallback_gate` for this map's P and ``soft``; an
        explicit value is used as given.
    max_steps : hard bound on hill-climb moves (defensive; the climb is
        strictly improving so it always terminates anyway).
    """

    def __init__(
        self,
        face_map: FaceMap,
        *,
        soft: bool = False,
        hops: int = 2,
        fallback: bool = True,
        fallback_sq_distance: "float | None" = None,
        max_steps: int = 100_000,
    ) -> None:
        if hops not in (1, 2):
            raise ValueError(f"hops must be 1 or 2, got {hops}")
        if fallback_sq_distance is None:
            fallback_sq_distance = default_fallback_gate(face_map.n_pairs, soft=soft)
        if fallback_sq_distance < 0:
            raise ValueError(f"fallback gate must be non-negative, got {fallback_sq_distance}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.face_map = face_map
        self.soft = soft
        self.hops = hops
        self.fallback = fallback
        self.fallback_sq_distance = fallback_sq_distance
        self.max_steps = max_steps
        self._exhaustive = ExhaustiveMatcher(face_map, soft=soft)
        self._last_face: int | None = None

    @property
    def last_face(self) -> "int | None":
        """Face of the previous localization (Algorithm 2's f0)."""
        return self._last_face

    def reset(self) -> None:
        """Forget the previous face; the next match seeds exhaustively."""
        self._last_face = None

    def match(self, vector: np.ndarray, start_face: "int | None" = None) -> MatchResult:
        """Match *vector*, hill-climbing from ``start_face`` / the previous face.

        The very first localization (no previous face, no explicit start)
        falls back to one exhaustive scan — Algorithm 2's
        ``Initialization()``.
        """
        fm = self.face_map
        record = obs.enabled()
        start = start_face if start_face is not None else self._last_face
        if start is None:
            if record:
                obs.counter("core.heuristic.init_scans").inc()
            result = self._exhaustive.match(vector)
            self._last_face = result.face_id
            return result
        if not (0 <= start < fm.n_faces):
            raise IndexError(f"start face {start} out of range [0, {fm.n_faces})")

        query = fm._query(np.asarray(vector, dtype=np.float32)[None], self.soft)
        current = int(start)
        current_d2 = float(fm._sq_distances(query, np.array([current]))[0, 0])
        visited = 1
        steps = 0
        for _ in range(self.max_steps):
            nbrs = fm.neighbors(current)
            if self.hops == 2 and len(nbrs):
                # widen the step to the 2-hop neighborhood: single-face
                # local optima under noisy vectors are common, and one
                # extra ring is enough to step over almost all of them
                ring = set(nbrs.tolist())
                for nb in nbrs:
                    ring.update(fm.neighbors(int(nb)).tolist())
                ring.discard(current)
                # scored in set iteration order; np.argmin keeps the first
                # face at the minimum (oracle_climb mirrors both)
                nbrs = np.fromiter(ring, dtype=np.int64)
            if len(nbrs) == 0:
                break
            d2 = fm._sq_distances(query, nbrs)[0]
            visited += len(nbrs)
            best = int(np.argmin(d2))
            best_d2 = float(d2[best])
            if best_d2 < current_d2 - 1e-12:
                current = int(nbrs[best])
                current_d2 = best_d2
                steps += 1
            else:
                break

        if record:
            obs.counter("core.heuristic.rounds").inc()
            obs.histogram("core.heuristic.steps").observe(steps)
            obs.histogram("core.heuristic.visited").observe(visited)

        if self.fallback and current_d2 > self.fallback_sq_distance:
            if record:
                obs.counter("core.heuristic.fallbacks").inc()
            result = self._exhaustive.match(vector)
            self._last_face = result.face_id
            return MatchResult(
                face_ids=result.face_ids,
                sq_distance=result.sq_distance,
                position=result.position,
                visited=visited + result.visited,
            )

        self._last_face = current
        return MatchResult(
            face_ids=np.array([current]),
            sq_distance=current_d2,
            position=fm.centroids[current].copy(),
            visited=visited,
        )
