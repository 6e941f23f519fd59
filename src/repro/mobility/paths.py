"""Deterministic piecewise-linear paths.

Used for the outdoor evaluation (the person walks a "⌐"-shaped trace,
Fig. 13) and for controlled tests where the ground truth must be exactly
known.  Speeds may vary per segment — the paper's walker moves "at
changeable velocity in 1~5 m/s".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.primitives import polyline_length
from repro.rng import ensure_rng

__all__ = ["PiecewiseLinearPath", "l_shape_path"]


@dataclass
class PiecewiseLinearPath:
    """Motion along fixed vertices with per-segment speeds.

    Parameters
    ----------
    vertices : (V, 2) path corners, traversed in order.
    speeds : scalar or (V-1,) per-segment speeds in m/s.
    """

    vertices: np.ndarray
    speeds: "float | np.ndarray" = 1.0
    _times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.shape[0] < 2 or v.shape[1] != 2:
            raise ValueError(f"need at least two (x, y) vertices, got shape {v.shape}")
        self.vertices = v
        seg = np.diff(v, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len <= 0):
            raise ValueError("path contains a zero-length segment")
        speeds = np.broadcast_to(np.asarray(self.speeds, dtype=float), seg_len.shape).copy()
        if np.any(speeds <= 0):
            raise ValueError("all segment speeds must be positive")
        self.speeds = speeds
        self._times = np.concatenate([[0.0], np.cumsum(seg_len / speeds)])

    @property
    def duration_s(self) -> float:
        return float(self._times[-1])

    @property
    def length_m(self) -> float:
        return polyline_length(self.vertices)

    def position(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        t = np.clip(times, 0.0, self.duration_s)
        idx = np.clip(np.searchsorted(self._times, t, side="right") - 1, 0, len(self._times) - 2)
        t0, t1 = self._times[idx], self._times[idx + 1]
        frac = ((t - t0) / np.where(t1 > t0, t1 - t0, 1.0))[:, None]
        return self.vertices[idx] * (1.0 - frac) + self.vertices[idx + 1] * frac


def l_shape_path(
    field_size: float,
    *,
    rng: "np.random.Generator | int | None" = None,
) -> PiecewiseLinearPath:
    """The outdoor "⌐" trace of Fig. 13: up one side, then across the top,
    inset a quarter of the field from its edges.

    Per-segment speeds are drawn uniformly from 1-5 m/s — the paper's
    "changeable velocity in 1~5 m/s".  The two legs are subdivided so the
    speed actually changes along each leg.
    """
    inset = 0.25 * field_size
    # vertical leg (bottom-left, going up) then horizontal leg (going right)
    leg1 = np.column_stack(
        [np.full(4, inset), np.linspace(inset, field_size - inset, 4)]
    )
    leg2 = np.column_stack(
        [np.linspace(inset, field_size - inset, 4)[1:], np.full(3, field_size - inset)]
    )
    vertices = np.vstack([leg1, leg2])
    speeds = ensure_rng(rng).uniform(1.0, 5.0, size=len(vertices) - 1)
    return PiecewiseLinearPath(vertices, speeds)
