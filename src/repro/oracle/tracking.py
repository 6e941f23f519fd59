"""Tracking oracle: the Fig. 4 round loop re-derived scalar-style.

Mirrors :meth:`repro.core.tracker.FTTTracker.localize` round by round —
including the PR-3 degradation policy (flip-rate suppression, reporting
quorum, Definition 10 tie-break) — but builds every sampling vector with
the per-pair loops of :func:`repro.oracle.matching.oracle_sampling_vector`
and matches with the naive full scan of
:func:`repro.oracle.matching.oracle_match` or, for ``matcher="heuristic"``,
with the scalar Algorithm 2 climb of
:func:`repro.oracle.matching.oracle_climb` from the previous round's face
over the adjacency of :func:`repro.oracle.geometry.oracle_face_adjacency`.

Bit-identity contract: in **basic** mode every pair value is a small
integer, every masked distance an exact small integer, and every
aggregation either elementwise or a short in-order sum — so the oracle's
anchor faces, tie sets and positions must equal the production tracker's
exactly.  (Extended-mode distances round differently in float32 and are
compared structurally by the fuzz harness instead.)  Aggregations that
are orchestration rather than kernels — tie centroids, tie-break
agreement sums — deliberately reuse the same numpy expressions the
production tracker uses, so the comparison isolates the kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.tracker import DegradationPolicy
from repro.geometry.faces import FaceMap
from repro.oracle.geometry import oracle_face_adjacency
from repro.oracle.matching import oracle_climb, oracle_match, oracle_sampling_vector

__all__ = ["OracleEstimate", "oracle_track"]


@dataclass(frozen=True)
class OracleEstimate:
    """One oracle localization round."""

    t: float
    face_ids: tuple[int, ...]
    position: tuple[float, float]
    sq_distance: float
    n_reporting: int
    held: bool  # True when the quorum fallback re-used the previous face


def oracle_track(
    face_map: FaceMap,
    rss_rounds: "list[np.ndarray]",
    times: "list[float] | None" = None,
    *,
    mode: str = "basic",
    matcher: str = "exhaustive",
    comparator_eps: float = 0.0,
    degradation: "DegradationPolicy | None" = None,
) -> list[OracleEstimate]:
    """Track through *rss_rounds* with oracle kernels only.

    ``matcher="heuristic"`` climbs from the previous matched face (the
    lowest id of its tie set); the first round, with no previous face,
    scans every face, as does a climb that ends above the fallback gate.
    A round held by the quorum check leaves the previous face in place.
    """
    if matcher not in ("exhaustive", "heuristic"):
        raise ValueError(f"unknown matcher {matcher!r}")
    if times is None:
        times = [float(r) for r in range(len(rss_rounds))]
    signatures = face_map.signatures.astype(float)
    centroids = face_map.centroids
    neighbors = oracle_face_adjacency(face_map) if matcher == "heuristic" else None
    flip_ewma: "list[float] | None" = None
    flip_obs: "list[int] | None" = None
    prev: "OracleEstimate | None" = None
    last_face: "int | None" = None  # where the next climb starts
    estimates: list[OracleEstimate] = []
    for t, rss in zip(times, rss_rounds):
        rss = np.atleast_2d(np.asarray(rss, dtype=float))
        vector = oracle_sampling_vector(rss, mode=mode, comparator_eps=comparator_eps)
        n_reporting = sum(
            1 for s in range(rss.shape[1]) if any(not math.isnan(x) for x in rss[:, s])
        )
        raw = vector.copy()
        weak = False
        if degradation is not None:
            if flip_ewma is None or len(flip_ewma) != len(vector):
                flip_ewma = [0.0] * len(vector)
                flip_obs = [0] * len(vector)
            vector = _suppress(vector, flip_ewma, flip_obs, degradation)
            weak = _quorum_is_weak(vector, n_reporting, degradation)
            if weak and prev is not None:
                est = OracleEstimate(
                    t=float(t),
                    face_ids=prev.face_ids,
                    position=prev.position,
                    sq_distance=float("inf"),
                    n_reporting=n_reporting,
                    held=True,
                )
                estimates.append(est)
                prev = est
                continue
        if neighbors is not None and last_face is not None:
            ties, best = oracle_climb(signatures, neighbors, vector, last_face)
        else:
            ties, best = oracle_match(signatures, vector)
        if (
            degradation is not None
            and degradation.tie_break
            and weak
            and len(ties) > 1
        ):
            ties = _tie_break(ties, rss, signatures, comparator_eps)
        last_face = ties[0]
        if degradation is not None:
            _update_residuals(raw, ties, signatures, flip_ewma, flip_obs, degradation)
        position = centroids[np.asarray(ties, dtype=np.int64)].mean(axis=0)
        est = OracleEstimate(
            t=float(t),
            face_ids=tuple(int(f) for f in ties),
            position=(float(position[0]), float(position[1])),
            sq_distance=float(best),
            n_reporting=n_reporting,
            held=False,
        )
        estimates.append(est)
        prev = est
    return estimates


def _suppress(
    vector: np.ndarray,
    flip_ewma: "list[float]",
    flip_obs: "list[int]",
    pol: DegradationPolicy,
) -> np.ndarray:
    """Demote chronically disagreeing pairs to ``*``, one pair at a time."""
    out = vector.copy()
    for p in range(len(out)):
        if math.isnan(out[p]):
            continue
        if flip_obs[p] >= pol.warmup_rounds and flip_ewma[p] >= pol.flip_threshold:
            out[p] = float("nan")
    return out


def _quorum_is_weak(vector: np.ndarray, n_reporting: int, pol: DegradationPolicy) -> bool:
    masked = sum(1 for v in vector if math.isnan(v))
    masked_fraction = masked / len(vector)
    return n_reporting < pol.min_reporting or masked_fraction > pol.max_masked_fraction


def _update_residuals(
    raw: np.ndarray,
    ties: "list[int]",
    signatures: np.ndarray,
    flip_ewma: "list[float]",
    flip_obs: "list[int]",
    pol: DegradationPolicy,
) -> None:
    """Score observed pairs against the matched face (EWMA of |v - s| / 2)."""
    sigs = signatures[np.asarray(ties, dtype=np.int64)]
    sig = sigs.mean(axis=0) if len(ties) > 1 else sigs[0]
    alpha = pol.ewma_alpha
    for p in range(len(raw)):
        if math.isnan(raw[p]):
            continue
        residual = abs(float(raw[p]) - float(sig[p])) / 2.0
        flip_ewma[p] += alpha * (residual - flip_ewma[p])
        flip_obs[p] += 1


def _tie_break(
    ties: "list[int]",
    rss: np.ndarray,
    signatures: np.ndarray,
    comparator_eps: float,
) -> "list[int]":
    """Definition 10 tie-break: keep the faces agreeing most with the
    quantitative vector (inner product, ``*`` pairs contributing 0)."""
    ext = oracle_sampling_vector(rss, mode="extended", comparator_eps=comparator_eps)
    sigs = signatures[np.asarray(ties, dtype=np.int64)]
    prod = sigs * ext[None, :]
    prod = np.where(np.isnan(prod), 0.0, prod)
    agreement = prod.sum(axis=1)
    best = agreement.max()
    keep = agreement >= best - 1e-12
    if keep.all():
        return ties
    return [f for f, k in zip(ties, keep) if k]
