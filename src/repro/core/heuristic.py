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

A face's ring depends on the map alone, so the map memoizes it, one table
per ``hops``: every matcher on a map shares that memo.  The first climb
through a face builds the ring from Python sets, and every later one
reuses that array, with the face itself in front so one kernel call
scores the step's start too.  The memo keeps the set
iteration order a fresh build gives, so ties resolve as they would without
it.  At n = 40 (1 m cells) a round builds or reuses about 2.4 rings of ~14
faces, and reusing them makes the climb ~1.2x faster than rebuilding
each (``benchmarks/test_perf_kernels.py``).  A map's memo outlives its
trackers: in the ``perfbench`` faultlab-campaign world the 36 cells of a
replication track on one map, and a campaign (seed 1, serial)
builds 843 rings where per-matcher memos built 11,225.

Hill climbing can stall in a local optimum if the target jumped far or the
sampling vector is badly corrupted; ``fallback`` optionally detects a poor
local optimum and re-runs the exhaustive scan, preserving Algorithm 2's
speed in the common case without sacrificing worst-case accuracy.  A
round prepares its vector once: the climb's query scores the rings, and
the fallback hands the same query to ``FaceMap.match``.  Both distances
are then at hand, and ``core.heuristic.useful_fallbacks`` counts the
fallbacks whose scan found a face strictly closer than the climb's local
optimum.  The gate that calls a local optimum poor scales with P (see
:func:`default_fallback_gate`): in the traced ``perfbench`` online-fttt
workload (default ``fttt`` tracker, n = 40, seed 7) 0.7 % of climbs fall
back, and a round scores 106 faces on average.  The gate suits that
world, not every world: in the ``perfbench`` faultlab-campaign world
(n = 12, every sensor hears the whole field, value faults; seed 1,
serial, one campaign's merged ``metrics.json``) 10,631 of 11,376 climbs
fell back, so 10,775 of the 11,520 heuristic matches (144 of them initial
scans) ended in an exhaustive scan, and 3,366 of those 10,631 scans found
a closer face than the climb had.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import MatchResult, _tied_result
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
    soft : ``(F, P)`` float32 soft signatures (§6) to match against, or
        None (default) for the map's qualitative ones.
    hops : search ring per climb step; 1 is Algorithm 2 verbatim, 2
        (default) also examines neighbors-of-neighbors, which escapes the
        single-face local optima noisy sampling vectors create while still
        visiting a tiny fraction of the face set.
    fallback : when True (default), a local optimum whose squared distance
        exceeds ``fallback_sq_distance`` triggers one exhaustive re-match.

    Attributes
    ----------
    fallback_sq_distance : quality gate for the fallback, in squared
        vector-distance units: :func:`default_fallback_gate` for this map's
        P and for whether ``soft`` is given.
    last_face : face of the previous localization (Algorithm 2's f0), or
        None before the first match.
    """

    def __init__(
        self,
        face_map: FaceMap,
        *,
        soft: "np.ndarray | None" = None,
        hops: int = 2,
        fallback: bool = True,
    ) -> None:
        if hops not in (1, 2):
            raise ValueError(f"hops must be 1 or 2, got {hops}")
        self.face_map = face_map
        self.soft = soft
        self.hops = hops
        self.fallback = fallback
        self.fallback_sq_distance = default_fallback_gate(face_map.n_pairs, soft=soft is not None)
        self.last_face: int | None = None
        self._rings = face_map._rings.setdefault(hops, {})

    def reset(self) -> None:
        """Forget the previous face; the next match seeds exhaustively.

        The ring memo stays: it belongs to the map."""
        self.last_face = None

    def _ring(self, face: int) -> np.ndarray:
        """*face* followed by the faces one climb step from it scores,
        memoized per face on the map.

        With ``hops == 2`` the ring is the 2-hop neighbourhood: single-face
        local optima under noisy vectors are common, and one extra ring is
        enough to step over almost all of them.  The ring is built once,
        by the same set insertions every time, so its order is the set
        iteration order a fresh build gives; np.argmin keeps the first
        face at the minimum (oracle_climb mirrors both).  *face* leads so
        that one kernel call also scores the climb's start.  The memo
        holds at most one array per face of the map.
        """
        ring = self._rings.get(face)
        if ring is None:
            fm = self.face_map
            nbrs = fm.neighbors(face)
            if self.hops == 2 and len(nbrs):
                faces = set(nbrs.tolist())
                for nb in nbrs:
                    faces.update(fm.neighbors(int(nb)).tolist())
                faces.discard(face)
                nbrs = np.fromiter(faces, dtype=np.int64)
            ring = np.concatenate(([face], nbrs))
            self._rings[face] = ring
        return ring

    def _settle(self, face_ids: np.ndarray, sq_distance: float, visited: int) -> MatchResult:
        """The round's result; its first face is the next climb's start."""
        self.last_face = int(face_ids[0])
        return _tied_result(self.face_map, face_ids, sq_distance, visited)

    def match(self, vector: np.ndarray, start_face: "int | None" = None) -> MatchResult:
        """Match *vector*, hill-climbing from ``start_face`` / the previous face.

        The very first localization (no previous face, no explicit start)
        falls back to one exhaustive scan — Algorithm 2's
        ``Initialization()``.  The scans go through ``FaceMap.match`` with
        the query the climb prepared, so the vector is prepared once.
        """
        fm = self.face_map
        record = obs.enabled()
        query = fm._query(fm._as_row(vector), self.soft)
        start = start_face if start_face is not None else self.last_face
        if start is None:
            if record:
                obs.counter("core.heuristic.init_scans").inc()
            ties, best = fm.match(query)
            return self._settle(ties, best, fm.n_faces)
        if not (0 <= start < fm.n_faces):
            raise IndexError(f"start face {start} out of range [0, {fm.n_faces})")

        current = int(start)
        ring = self._ring(current)
        d2 = fm._sq_distances(query, ring)[0]
        current_d2 = float(d2[0])
        visited = 1
        steps = 0
        while len(ring) > 1:  # strictly improving, so it ends
            visited += len(ring) - 1
            best = int(np.argmin(d2[1:])) + 1
            best_d2 = float(d2[best])
            if best_d2 < current_d2 - 1e-12:
                current = int(ring[best])
                ring = self._ring(current)
                d2 = fm._sq_distances(query, ring)[0]
                current_d2 = best_d2
                steps += 1
            else:
                break

        if record:
            obs.counter("core.heuristic.rounds").inc()
            obs.histogram("core.heuristic.steps").observe(steps)
            obs.histogram("core.heuristic.visited").observe(visited)

        if self.fallback and current_d2 > self.fallback_sq_distance:
            ties, best = fm.match(query)
            if record:
                obs.counter("core.heuristic.fallbacks").inc()
                if best < current_d2:
                    obs.counter("core.heuristic.useful_fallbacks").inc()
            return self._settle(ties, best, visited + fm.n_faces)
        return self._settle(np.array([current]), current_d2, visited)
