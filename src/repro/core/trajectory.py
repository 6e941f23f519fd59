"""Trajectory post-processing and smoothness metrics.

The paper's second motivating problem: under uncertainty, "the returning
results change back and forth instead of being smooth".  FTTT attacks the
cause; this module handles the residue — post-hoc smoothing of an
estimated trace and the metrics that quantify how jumpy a trajectory is
(used by the extended-FTTT evaluation, whose claim is exactly
"smoother").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tracker import TrackEstimate, TrackResult

__all__ = [
    "moving_average",
    "exponential_smoothing",
    "median_filter",
    "smooth_result",
    "TrajectorySmoothness",
    "smoothness_metrics",
]


def moving_average(positions: np.ndarray, window: int = 3) -> np.ndarray:
    """Centred moving average over a (T, 2) position series.

    Edges use shrunken windows, so the output has the same length and no
    phase lag.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1 or len(positions) <= 2:
        return positions.copy()
    half = window // 2
    out = np.empty_like(positions)
    for t in range(len(positions)):
        lo = max(0, t - half)
        hi = min(len(positions), t + half + 1)
        out[t] = positions[lo:hi].mean(axis=0)
    return out


def exponential_smoothing(positions: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Causal exponential smoothing (usable online): s_t = a·x_t + (1-a)·s_{t-1}."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    out = np.empty_like(positions)
    out[0] = positions[0]
    for t in range(1, len(positions)):
        out[t] = alpha * positions[t] + (1.0 - alpha) * out[t - 1]
    return out


def median_filter(positions: np.ndarray, window: int = 3) -> np.ndarray:
    """Component-wise centred median filter — kills single-round outliers
    (the back-and-forth jumps) without smearing corners as much as a mean."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1 or len(positions) <= 2:
        return positions.copy()
    half = window // 2
    out = np.empty_like(positions)
    for t in range(len(positions)):
        lo = max(0, t - half)
        hi = min(len(positions), t + half + 1)
        out[t] = np.median(positions[lo:hi], axis=0)
    return out


def smooth_result(result: TrackResult, *, method: str = "median", window: int = 3) -> TrackResult:
    """Return a new TrackResult with smoothed estimate positions
    (``"exponential"`` smooths with weight 0.5 on each new estimate).

    Ground truth, timestamps and per-round metadata are preserved, so the
    error metrics of the smoothed result are directly comparable.
    """
    if method == "mean":
        smoothed = moving_average(result.positions, window)
    elif method == "median":
        smoothed = median_filter(result.positions, window)
    elif method == "exponential":
        smoothed = exponential_smoothing(result.positions, 0.5)
    else:
        raise ValueError(f"unknown method {method!r}")
    out = TrackResult()
    for est, pos, truth in zip(result.estimates, smoothed, result.true_positions):
        out.append(
            TrackEstimate(
                t=est.t,
                position=pos,
                face_ids=est.face_ids,
                sq_distance=est.sq_distance,
                n_reporting=est.n_reporting,
                visited_faces=est.visited_faces,
            ),
            truth,
        )
    return out


@dataclass(frozen=True)
class TrajectorySmoothness:
    """How jumpy an estimated trajectory is."""

    mean_step_m: float  # mean per-round displacement
    max_step_m: float
    path_inflation: float  # estimated path length / true path length
    mean_turn_rad: float  # mean absolute heading change between steps
    reversal_rate: float  # fraction of steps turning more than 90 degrees


def smoothness_metrics(result: TrackResult) -> TrajectorySmoothness:
    """Quantify trajectory roughness (larger = jumpier).

    ``path_inflation`` is the headline: a tracker that zig-zags around the
    true trace travels much farther than the target did.
    """
    est = result.positions
    tru = result.truth
    if len(est) < 3:
        raise ValueError("need at least three rounds for smoothness metrics")
    steps = np.diff(est, axis=0)
    step_len = np.hypot(steps[:, 0], steps[:, 1])
    true_len = np.hypot(*np.diff(tru, axis=0).T).sum()
    headings = np.arctan2(steps[:, 1], steps[:, 0])
    moving = step_len > 1e-9
    dh = np.abs(np.angle(np.exp(1j * np.diff(headings))))
    dh = dh[moving[:-1] & moving[1:]]
    return TrajectorySmoothness(
        mean_step_m=float(step_len.mean()),
        max_step_m=float(step_len.max()),
        path_inflation=float(step_len.sum() / true_len) if true_len > 0 else float("inf"),
        mean_turn_rad=float(dh.mean()) if len(dh) else 0.0,
        reversal_rate=float((dh > np.pi / 2).mean()) if len(dh) else 0.0,
    )
