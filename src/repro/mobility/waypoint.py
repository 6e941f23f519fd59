"""Random-waypoint mobility (paper ref [30]).

The target repeatedly picks a uniform random waypoint in the field and a
uniform random speed in ``[v_min, v_max]``, travels there in a straight
line, optionally pauses, and repeats.  The trace is materialized up front
(waypoints, speeds, segment times) so that ``position(t)`` is a pure
vectorized lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rng import ensure_rng

__all__ = ["RandomWaypoint"]


@dataclass
class RandomWaypoint:
    """Materialized random-waypoint trace.

    Parameters
    ----------
    field_size : side of the square field in metres.
    duration_s : trace length to materialize.
    speed_range : (v_min, v_max) in m/s — Table 1 uses 1..5.
    pause_s : pause duration at each waypoint (0 in the paper's setup).
    margin : keep waypoints this many metres inside the field border.
    rng / seed : randomness source.
    """

    field_size: float = 100.0
    duration_s: float = 60.0
    speed_range: tuple[float, float] = (1.0, 5.0)
    pause_s: float = 0.0
    margin: float = 0.0
    seed: "int | np.random.Generator | None" = None
    _times: np.ndarray = field(init=False, repr=False)
    _points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v_min, v_max = self.speed_range
        if not (0 < v_min <= v_max):
            raise ValueError(f"speed range invalid: {self.speed_range}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.pause_s < 0:
            raise ValueError(f"pause must be non-negative, got {self.pause_s}")
        if not (0 <= self.margin < self.field_size / 2):
            raise ValueError(f"margin {self.margin} incompatible with field {self.field_size}")
        rng = ensure_rng(self.seed)
        lo, hi = self.margin, self.field_size - self.margin

        times = [0.0]
        points = [rng.uniform(lo, hi, size=2)]
        t = 0.0
        while t < self.duration_s:
            nxt = rng.uniform(lo, hi, size=2)
            speed = rng.uniform(v_min, v_max)
            leg = float(np.hypot(*(nxt - points[-1])))
            if leg < 1e-9:
                continue  # re-draw coincident waypoint
            t += leg / speed
            times.append(t)
            points.append(nxt)
            if self.pause_s > 0:
                t += self.pause_s
                times.append(t)
                points.append(nxt)
        self._times = np.asarray(times)
        self._points = np.stack(points)

    def position(self, times: np.ndarray) -> np.ndarray:
        """Linear interpolation along the materialized trace; clamped at ends."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        t = np.clip(times, self._times[0], self._times[-1])
        idx = np.clip(np.searchsorted(self._times, t, side="right") - 1, 0, len(self._times) - 2)
        t0 = self._times[idx]
        t1 = self._times[idx + 1]
        span = np.where(t1 > t0, t1 - t0, 1.0)
        frac = ((t - t0) / span)[:, None]
        return self._points[idx] * (1.0 - frac) + self._points[idx + 1] * frac

    def speed(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous speed at the given times (0 while pausing/clamped)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        t = np.clip(times, self._times[0], self._times[-1])
        idx = np.clip(np.searchsorted(self._times, t, side="right") - 1, 0, len(self._times) - 2)
        seg = self._points[idx + 1] - self._points[idx]
        dt = self._times[idx + 1] - self._times[idx]
        dt = np.where(dt > 0, dt, np.inf)
        return np.hypot(seg[:, 0], seg[:, 1]) / dt
