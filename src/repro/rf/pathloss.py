"""Log-distance path-loss model (paper Eq. 1).

    PL(d) = PL(d0) + A - 10 * beta * log10(d / d0)        with d0 = 1 m

``PL(d0) + A`` is bundled into a single reference power ``p0_dbm`` — only
differences of RSS matter to every algorithm in this library, so the split
between transmit power and reference loss is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LogDistancePathLoss"]


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Deterministic part of the received-signal model.

    Parameters
    ----------
    exponent:
        Path-loss exponent beta; 2 is free space, 3-4 models reflective /
        refractive environments (the paper evaluates with beta = 4).
    p0_dbm:
        Received power at the reference distance ``d0``.
    d0:
        Reference distance in metres (1 m in the paper).
    min_distance:
        Distances are clamped below to this value — the log model diverges
        at d = 0 and physical antennas cannot be co-located with the target.
    """

    exponent: float = 4.0
    p0_dbm: float = -40.0
    d0: float = 1.0
    min_distance: float = 1e-3

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.exponent}")
        if self.d0 <= 0:
            raise ValueError(f"reference distance must be positive, got {self.d0}")
        if self.min_distance <= 0:
            raise ValueError(f"min_distance must be positive, got {self.min_distance}")

    def rss_dbm(self, distance_m: np.ndarray) -> np.ndarray:
        """Mean RSS at the given distances (no noise)."""
        d = np.maximum(np.asarray(distance_m, dtype=float), self.min_distance)
        return self.p0_dbm - 10.0 * self.exponent * np.log10(d / self.d0)

    def distance_from_rss(self, rss_dbm: np.ndarray) -> np.ndarray:
        """Invert the mean model: maximum-likelihood distance given RSS.

        This is what range-based baselines use to turn a (noisy) RSS into a
        distance estimate; noise makes the estimate log-normally biased,
        which is precisely the unreliability the paper exploits.
        """
        rss = np.asarray(rss_dbm, dtype=float)
        return self.d0 * 10.0 ** ((self.p0_dbm - rss) / (10.0 * self.exponent))
