"""Correlated shadowing models.

The paper assumes i.i.d. per-sample noise (Eq. 1).  Real shadowing is
correlated — in time (the environment changes slower than 10 Hz sampling)
and across nodes (nearby sensors see the same obstacles).  These models
exist for robustness studies:

* temporal correlation makes a grouping sampling's k looks-at-the-channel
  redundant, weakening flip capture — FTTT's k budget must grow;
* cross-node correlation *cancels* in pairwise comparisons (FTTT only ever
  differences two sensors' RSS), so FTTT is naturally immune to the
  common-mode part — an advantage the ablation bench quantifies.

Both implement the :class:`~repro.rf.noise.NoiseModel` protocol by keeping
state across ``sample`` calls (they are deliberately *not* frozen).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TemporallyCorrelatedNoise", "CommonModeNoise"]


@dataclass
class TemporallyCorrelatedNoise:
    """AR(1) shadowing per sensor: successive samples share most of their noise.

    ``x_t = rho * x_{t-1} + sqrt(1 - rho^2) * N(0, sigma^2)`` per column,
    stationary at N(0, sigma^2).  ``rho = 0`` recovers the paper's i.i.d.
    model; ``rho -> 1`` freezes the noise within a grouping sampling, which
    is the worst case for flip capture (every sample repeats the same
    comparison outcome).
    """

    sigma_dbm: float = 6.0
    rho: float = 0.8
    _state: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sigma_dbm < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma_dbm}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")

    def reset(self) -> None:
        self._state = None

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        if len(shape) != 2:
            raise ValueError(f"expected a (k, n) sample shape, got {shape}")
        k, n = shape
        if self.sigma_dbm == 0.0:
            return np.zeros(shape)
        out = np.empty(shape)
        if self._state is None or len(self._state) != n:
            self._state = rng.normal(0.0, self.sigma_dbm, size=n)
        innov_scale = self.sigma_dbm * np.sqrt(1.0 - self.rho**2)
        state = self._state
        for t in range(k):
            state = self.rho * state + rng.normal(0.0, innov_scale, size=n)
            out[t] = state
        self._state = state
        return out


@dataclass
class CommonModeNoise:
    """Per-sample noise with a shared common-mode component across sensors.

    ``x[t, i] = alpha * g[t] + sqrt(1 - alpha^2) * e[t, i]`` with both parts
    N(0, sigma^2): ``alpha`` is the fraction of the noise *amplitude* every
    sensor sees identically (interference bursts, wide-area fading).  The
    common part cancels exactly in any pairwise RSS difference, so
    comparison-based trackers see an effective sigma of
    ``sigma * sqrt(1 - alpha^2)``.
    """

    sigma_dbm: float = 6.0
    alpha: float = 0.7

    def __post_init__(self) -> None:
        if self.sigma_dbm < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma_dbm}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @property
    def effective_pairwise_sigma(self) -> float:
        """Noise std seen by a pairwise comparison (common mode cancelled)."""
        return self.sigma_dbm * float(np.sqrt(1.0 - self.alpha**2))

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        if len(shape) != 2:
            raise ValueError(f"expected a (k, n) sample shape, got {shape}")
        k, n = shape
        if self.sigma_dbm == 0.0:
            return np.zeros(shape)
        common = rng.normal(0.0, self.sigma_dbm, size=(k, 1))
        private = rng.normal(0.0, self.sigma_dbm, size=(k, n))
        return self.alpha * common + np.sqrt(1.0 - self.alpha**2) * private
