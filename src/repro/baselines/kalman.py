"""Model-based tracking: constant-velocity Kalman filter.

The paper's related work contrasts FTTT with model-based trackers that
"successively estimate the localization, velocity and trace of the target
with target movement modeling ... e.g. Kalman filter" and criticizes them
as "complex and inflexible, requiring detailed assumptions of target
mobility".  This is that tracker: a linear Kalman filter with a
constant-velocity process model, fed by position pseudo-measurements from
any per-round localizer (range MLE by default).  It inherits exactly the
weakness the paper points at — a mobility prior that random-waypoint
turns keep violating.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracker import TrackEstimate, Tracker

__all__ = ["KalmanTracker"]


class KalmanTracker(Tracker):
    """Constant-velocity Kalman filter over per-round position fixes.

    State ``[x, y, vx, vy]``; measurements are the 2-D position estimates
    of an inner per-round localizer.

    Parameters
    ----------
    measurement_tracker : any :class:`~repro.core.tracker.Tracker` — its
        ``localize`` produces the position fixes the filter smooths (e.g.
        ``RangeMLETracker``) and checks the RSS width.
    field_size : state clipped into the field after each update.
    """

    process_sigma = 1.0  # accel-noise scale (m/s^2)
    measurement_sigma = 5.0  # assumed std of the position fixes (metres)

    def __init__(
        self,
        measurement_tracker,
        *,
        field_size: float = 100.0,
    ) -> None:
        self.inner = measurement_tracker
        self.n_sensors = measurement_tracker.n_sensors
        self.field_size = field_size
        self._state: np.ndarray | None = None
        self._cov: np.ndarray | None = None
        self._last_t: float | None = None

    # -- filter mechanics --------------------------------------------------

    def _predict(self, dt: float) -> None:
        f = np.eye(4)
        f[0, 2] = f[1, 3] = dt
        q_scale = self.process_sigma**2
        # white-acceleration discretization
        q = np.array(
            [
                [dt**4 / 4, 0, dt**3 / 2, 0],
                [0, dt**4 / 4, 0, dt**3 / 2],
                [dt**3 / 2, 0, dt**2, 0],
                [0, dt**3 / 2, 0, dt**2],
            ]
        ) * q_scale
        self._state = f @ self._state
        self._cov = f @ self._cov @ f.T + q

    def _update(self, z: np.ndarray) -> None:
        h = np.zeros((2, 4))
        h[0, 0] = h[1, 1] = 1.0
        r = np.eye(2) * self.measurement_sigma**2
        innov = z - h @ self._state
        s = h @ self._cov @ h.T + r
        k = self._cov @ h.T @ np.linalg.solve(s, np.eye(2))
        self._state = self._state + k @ innov
        self._cov = (np.eye(4) - k @ h) @ self._cov

    # -- tracker interface ----------------------------------------------------

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        fix = self.inner.localize(rss, t)
        z = np.asarray(fix.position, dtype=float)
        if self._state is None:
            self._state = np.array([z[0], z[1], 0.0, 0.0])
            self._cov = np.diag([self.measurement_sigma**2] * 2 + [4.0, 4.0])
        else:
            dt = max(t - (self._last_t if self._last_t is not None else t), 1e-3)
            self._predict(dt)
            self._update(z)
        self._last_t = t
        pos = np.clip(self._state[:2], 0.0, self.field_size)
        return TrackEstimate(
            t=t,
            position=pos.copy(),
            face_ids=np.array([-1]),
            sq_distance=float("nan"),
            n_reporting=fix.n_reporting,
            visited_faces=fix.visited_faces,
        )

    def reset(self) -> None:
        self._state = None
        self._cov = None
        self._last_t = None
        self.inner.reset()

    @property
    def velocity(self) -> "np.ndarray | None":
        """Current velocity estimate (m/s), None before the first update."""
        return None if self._state is None else self._state[2:].copy()
