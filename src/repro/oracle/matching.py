"""Matching oracle: per-pair loop vectors, scalar Eq. 7 masking, naive matching.

Four reference kernels, each a literal transcription:

* :func:`oracle_sampling_vector` — Algorithm 1 + Definition 10 + the
  Eq. 6 fault fill, one pair at a time, one sample instant at a time;
* :func:`oracle_masked_sq_distance` — the Eq. 7 masked vector distance,
  one component at a time in float64;
* :func:`oracle_match` — Definition 7 maximum-likelihood matching as the
  paper first states it: scan *every* face, keep the similarity maximum
  (the O(n^4)-faces scan Algorithm 2 exists to avoid);
* :func:`oracle_climb` — Algorithm 2 (§4.4-2): hill-climb over the 2-hop
  neighbor ring from the previous face, with the fallback gate that sends
  a poor local optimum to :func:`oracle_match`.

All arithmetic is float64 scalar.  The basic (Definition 4) pair values
are small integers, exact in both float32 and float64, so the production
float32 kernels must agree *bit for bit* on them; the extended
(Definition 10) values are rationals ``m/k`` where float32 rounding makes
the production distances differ in the last bits — the differential
harness compares those structurally (see
:func:`repro.oracle.fuzz.run_spec`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "oracle_sampling_vector",
    "oracle_masked_sq_distance",
    "oracle_match",
    "oracle_climb",
    "oracle_tie_tolerance",
]

_EPS32 = float(np.finfo(np.float32).eps)


def oracle_sampling_vector(
    rss: np.ndarray,
    *,
    mode: str = "basic",
    comparator_eps: float = 0.0,
) -> np.ndarray:
    """Sampling vector by scalar per-pair loops (Definitions 4/10, Eq. 6).

    For each pair ``(i, j), i < j`` (j innermost — the canonical order,
    re-derived locally):

    1. walk the k sample instants; skip instants where either sensor's
       sample is missing (NaN); count instants won by i (RSS difference
       beyond the comparator deadband), won by j, and valid instants;
    2. with at least one common valid instant: **basic** gives +1/-1 only
       for unanimous wins, else 0 (one discordant instant = a flip);
       **extended** gives ``(wins_i - wins_j) / n_valid``;
    3. with no common instant, the Eq. 6 fill: a reporting sensor beats a
       silent one (+1/-1), two silent sensors give ``*`` (NaN), and two
       sensors that reported but never simultaneously compare by their
       per-sensor mean RSS.
    """
    if mode not in ("basic", "extended"):
        raise ValueError(f"unknown mode {mode!r}")
    if comparator_eps < 0:
        raise ValueError(f"comparator_eps must be non-negative, got {comparator_eps}")
    rss = np.atleast_2d(np.asarray(rss, dtype=float))
    k, n = rss.shape
    if n < 2:
        raise ValueError(f"need at least two sensors, got {n}")
    values: list[float] = []
    for i in range(n):
        for j in range(i + 1, n):
            wins_i = wins_j = n_valid = 0
            for w in range(k):
                a, b = rss[w, i], rss[w, j]
                if math.isnan(a) or math.isnan(b):
                    continue
                n_valid += 1
                diff = a - b
                if diff > comparator_eps:
                    wins_i += 1
                elif diff < -comparator_eps:
                    wins_j += 1
            if n_valid > 0:
                if mode == "extended":
                    values.append((wins_i - wins_j) / n_valid)
                elif wins_i == n_valid:
                    values.append(1.0)
                elif wins_j == n_valid:
                    values.append(-1.0)
                else:
                    values.append(0.0)
                continue
            values.append(_eq6_fill(rss, i, j))
    return np.asarray(values, dtype=float)


def _eq6_fill(rss: np.ndarray, i: int, j: int) -> float:
    """The Eq. 6 pair value when sensors i and j share no valid instant."""
    reported_i = any(not math.isnan(x) for x in rss[:, i])
    reported_j = any(not math.isnan(x) for x in rss[:, j])
    if reported_i and not reported_j:
        return 1.0
    if reported_j and not reported_i:
        return -1.0
    if not reported_i and not reported_j:
        return float("nan")  # the ``*`` value, masked by Eq. 7
    # both reported but never simultaneously: compare mean RSS.  Zeros for
    # missing samples are added in column order, exactly like the
    # production ``np.where(nan, 0, rss).sum(axis=0)``, so the means (and
    # the sign of their difference) are bit-identical.
    mean_i = _column_mean(rss[:, i])
    mean_j = _column_mean(rss[:, j])
    return float(np.sign(mean_i - mean_j))


def _column_mean(column: np.ndarray) -> float:
    total = 0.0
    count = 0
    for x in column:
        if math.isnan(x):
            total += 0.0
        else:
            total += float(x)
            count += 1
    return total / max(count, 1)


def oracle_masked_sq_distance(vector: np.ndarray, signature: np.ndarray) -> float:
    """Squared vector distance with Eq. 7 masking, one component at a time.

    NaN components of *vector* are the ``*`` fault values and contribute
    zero; signature components are never NaN.
    """
    vector = np.asarray(vector, dtype=float)
    signature = np.asarray(signature, dtype=float)
    if vector.shape != signature.shape:
        raise ValueError(f"shape mismatch: {vector.shape} vs {signature.shape}")
    total = 0.0
    for v, s in zip(vector, signature):
        if math.isnan(v):
            continue
        d = float(s) - float(v)
        total += d * d
    return total


def oracle_tie_tolerance(best: float, n_pairs: int) -> float:
    """The documented tie rule of :meth:`repro.geometry.faces.FaceMap.match`.

    An exact match (``best == 0``) has infinite Definition 7 similarity
    — nothing else can tie with it; otherwise two faces tie when their
    squared distances agree to within float32 accumulation error over P
    terms, floored at the legacy absolute ``1e-6``.
    """
    if best == 0.0:
        return 0.0
    return max(1e-6, best * _EPS32 * math.sqrt(n_pairs))


def oracle_match(
    signatures: np.ndarray, vector: np.ndarray
) -> tuple[list[int], float]:
    """Exhaustive maximum-likelihood matching by full scalar scan (Def. 7).

    Returns ``(tied_face_ids, best_sq_distance)`` — every face whose
    masked distance ties at the minimum under the documented tolerance,
    ids ascending (the lowest id is the deterministic winner).
    """
    signatures = np.asarray(signatures)
    n_faces, n_pairs = signatures.shape
    distances = [
        oracle_masked_sq_distance(vector, signatures[f]) for f in range(n_faces)
    ]
    best = min(distances)
    tol = oracle_tie_tolerance(best, n_pairs)
    ties = [f for f, d in enumerate(distances) if d <= best + tol]
    return ties, best


def oracle_climb(
    signatures: np.ndarray,
    neighbors: "list[list[int]]",
    vector: np.ndarray,
    start: int,
    *,
    hops: int = 2,
    fallback: bool = True,
    gate: "float | None" = None,
) -> tuple[list[int], float]:
    """Algorithm 2 hill climb by scalar loops, with its fallback gate.

    Documented semantics of :class:`repro.core.heuristic.HeuristicMatcher`,
    one step at a time:

    1. start at face *start* with its masked distance;
    2. form the ring: the neighbors of the current face and, with
       ``hops=2``, their neighbors too, without the current face;
    3. score every ring face; the best is the first face at the lowest
       distance, in the order the matcher meets them: adjacency-list
       order for one hop, and for two hops the iteration order of a
       Python set filled with the neighbors, then each neighbor's
       neighbors (CPython iterates a set of ints in an order fixed by
       the values and the insertion sequence);
    4. move there only on strict improvement (``< current - 1e-12``),
       else stop at the local optimum;
    5. when ``fallback`` is on and the optimum's distance exceeds the gate
       (default ``0.1 * P``), discard the climb and scan every face.

    *neighbors* lists each face's neighbors in the production adjacency
    order (see :func:`repro.oracle.geometry.oracle_face_adjacency`).
    Returns ``(face_ids, sq_distance)``: one face for a climb, the
    full-scan tie set after a fallback.
    """
    signatures = np.asarray(signatures)
    n_pairs = signatures.shape[1]
    if gate is None:
        gate = 0.1 * n_pairs
    current = int(start)
    current_d2 = oracle_masked_sq_distance(vector, signatures[current])
    while True:  # every move strictly improves, so the climb ends
        ring = list(neighbors[current])
        if hops == 2 and ring:
            faces = set(ring)
            for nb in ring:
                faces.update(neighbors[nb])
            faces.discard(current)
            ring = list(faces)
        if not ring:
            break
        best_face, best_d2 = -1, math.inf
        for face in ring:
            d2 = oracle_masked_sq_distance(vector, signatures[face])
            if d2 < best_d2:
                best_face, best_d2 = face, d2
        if best_d2 < current_d2 - 1e-12:
            current, current_d2 = best_face, best_d2
        else:
            break
    if fallback and current_d2 > gate:
        return oracle_match(signatures, vector)
    return [current], current_d2
