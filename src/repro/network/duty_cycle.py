"""Tracking-aware duty cycling.

The paper defers "energy management ... of the target tracking sensor
networks" to ref [28]; this module supplies that subsystem as the natural
extension: sensors far from the target sleep, sensors the target is
heading toward wake up.  The controller predicts the next target position
by linear extrapolation of recent estimates and keeps awake exactly the
sensors within a guard radius of the prediction — everyone else's silence
flows through the normal Eq. 6 fault-tolerance path, which is what makes
duty cycling *compatible with FTTT by construction*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinearPredictor", "DutyCycleController"]


@dataclass
class LinearPredictor:
    """Constant-velocity extrapolation over the recent estimate window."""

    window: int = 4
    _times: list[float] = field(default_factory=list, repr=False)
    _points: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")

    def observe(self, t: float, position: np.ndarray) -> None:
        self._times.append(float(t))
        self._points.append(np.asarray(position, dtype=float).reshape(2))
        if len(self._times) > self.window:
            self._times.pop(0)
            self._points.pop(0)

    def velocity(self) -> "np.ndarray | None":
        """Least-squares velocity over the window; None with < 2 points."""
        if len(self._times) < 2:
            return None
        t = np.asarray(self._times)
        p = np.stack(self._points)
        t_c = t - t.mean()
        denom = float((t_c**2).sum())
        if denom <= 0:
            return np.zeros(2)
        return (t_c[:, None] * (p - p.mean(axis=0))).sum(axis=0) / denom

    def predict(self, t: float) -> "np.ndarray | None":
        """Predicted position at time *t*; None before two observations."""
        v = self.velocity()
        if v is None:
            return None
        return self._points[-1] + v * (t - self._times[-1])

    def reset(self) -> None:
        self._times.clear()
        self._points.clear()


@dataclass
class DutyCycleController:
    """Wake the sensors that can plausibly hear the target; sleep the rest.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    sensing_range_m : hearing radius R.
    guard_m : extra wake radius beyond R around the predicted position —
        absorbs prediction error and target manoeuvres.
    min_awake : never sleep below this many sensors (keeps localization
        alive even when the prediction is lost).
    predictor : position predictor fed by ``update``.
    """

    nodes: np.ndarray
    sensing_range_m: float = 40.0
    guard_m: float = 15.0
    min_awake: int = 4
    predictor: LinearPredictor = field(default_factory=LinearPredictor)
    _sleep_rounds: int = field(default=0, repr=False)
    _total_rounds: int = field(default=0, repr=False)
    _slept_sensor_rounds: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if self.sensing_range_m <= 0 or self.guard_m < 0:
            raise ValueError("ranges must be positive / non-negative")
        if self.min_awake < 2:
            raise ValueError(f"min_awake must be >= 2 (pairwise tracking), got {self.min_awake}")

    def update(self, t: float, estimate: np.ndarray) -> None:
        """Feed the latest localization estimate into the predictor."""
        self.predictor.observe(t, estimate)

    def sleep_mask(self, t_next: float) -> np.ndarray:
        """(n,) bool — True = sensor sleeps through the next round.

        With no usable prediction, everyone stays awake (cold start /
        reacquisition behaviour).
        """
        n = len(self.nodes)
        self._total_rounds += 1
        predicted = self.predictor.predict(t_next)
        if predicted is None:
            return np.zeros(n, dtype=bool)
        dist = np.hypot(self.nodes[:, 0] - predicted[0], self.nodes[:, 1] - predicted[1])
        wake = dist <= self.sensing_range_m + self.guard_m
        if wake.sum() < self.min_awake:
            nearest = np.argsort(dist)[: self.min_awake]
            wake = np.zeros(n, dtype=bool)
            wake[nearest] = True
        sleep = ~wake
        self._sleep_rounds += int(sleep.any())
        self._slept_sensor_rounds += int(sleep.sum())
        return sleep

    @property
    def duty_cycle(self) -> float:
        """Fraction of sensor-rounds spent awake so far (1.0 = no savings)."""
        n = len(self.nodes)
        total = self._total_rounds * n
        if total == 0:
            return 1.0
        return 1.0 - self._slept_sensor_rounds / total

    def energy_saved_fraction(self) -> float:
        """Sensor-rounds slept / total — the headline savings figure."""
        return 1.0 - self.duty_cycle

    def reset(self) -> None:
        self.predictor.reset()
        self._sleep_rounds = 0
        self._total_rounds = 0
        self._slept_sensor_rounds = 0
