"""The sampling channel: RSS observations of a target by many sensors.

Combines the deterministic path-loss law with a noise model and produces
the grouping-sampling matrices of Definition 3: ``k`` rows (time instants)
by ``n`` columns (sensors), with NaN marking sensors that did not report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rf.noise import GaussianNoise, NoiseModel
from repro.rf.pathloss import LogDistancePathLoss

__all__ = ["RssChannel", "SampleBatch"]


@dataclass(frozen=True)
class SampleBatch:
    """One grouping sampling (Definition 3).

    Attributes
    ----------
    rss : (k, n) RSS matrix in dBm; NaN where a sensor failed to report.
    times : (k,) sample timestamps in seconds.
    positions : (k, 2) true target positions at each sample instant.
    """

    rss: np.ndarray
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        if self.rss.ndim != 2:
            raise ValueError(f"rss must be (k, n), got shape {self.rss.shape}")
        if len(self.times) != len(self.rss):
            raise ValueError("times and rss must agree on k")
        if self.positions.shape != (len(self.rss), 2):
            raise ValueError("positions must be (k, 2)")

    @property
    def k(self) -> int:
        return self.rss.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.rss.shape[1]

    @property
    def responding(self) -> np.ndarray:
        """Boolean mask of sensors that reported every sample of the group."""
        return ~np.isnan(self.rss).any(axis=0)

    @property
    def mean_position(self) -> np.ndarray:
        """Centroid of the true positions during the group (quasi-stationary target)."""
        return self.positions.mean(axis=0)


@dataclass(frozen=True)
class RssChannel:
    """RSS observation channel for a fixed sensor deployment.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    pathloss : deterministic propagation law.
    noise : additive dB-domain noise model, fresh per node per sample.
    sensing_range_m : sensors farther than this from the target return no
        sample (NaN) — the paper's sensing range R.  ``None`` disables gating.
    """

    nodes: np.ndarray
    pathloss: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    noise: NoiseModel = field(default_factory=GaussianNoise)
    sensing_range_m: float | None = 40.0

    def __post_init__(self) -> None:
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if nodes.shape[1] != 2:
            raise ValueError(f"nodes must be (n, 2), got {nodes.shape}")
        object.__setattr__(self, "nodes", nodes)
        if self.sensing_range_m is not None and self.sensing_range_m <= 0:
            raise ValueError(f"sensing range must be positive, got {self.sensing_range_m}")

    @property
    def n_sensors(self) -> int:
        return len(self.nodes)

    def distances(self, positions: np.ndarray) -> np.ndarray:
        """Distances from target positions ``(k, 2)`` to all sensors -> ``(k, n)``."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        diff = positions[:, None, :] - self.nodes[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])

    def observe_distances(
        self, dist: np.ndarray, rng: np.random.Generator, *, drop_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """RSS matrix for a ``(k, n)`` target-to-sensor distance matrix:
        path loss plus fresh noise, NaN beyond the sensing range and where
        *drop_mask* (``(n,)`` or ``(k, n)``) is set."""
        rss = self.pathloss.rss_dbm(dist) + self.noise.sample(dist.shape, rng)
        if self.sensing_range_m is not None:
            rss = np.where(dist <= self.sensing_range_m, rss, np.nan)
        if drop_mask is not None:
            drop = np.asarray(drop_mask, dtype=bool)
            if drop.ndim == 1:
                drop = np.broadcast_to(drop, rss.shape)
            rss = np.where(drop, np.nan, rss)
        return rss

    def observe(
        self,
        positions: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
        *,
        drop_mask: np.ndarray | None = None,
    ) -> SampleBatch:
        """Produce one grouping sampling for target positions at sample times.

        Parameters
        ----------
        positions : (k, 2) true target positions at each instant.
        times : (k,) timestamps.
        rng : random source for the noise draws.
        drop_mask : optional (n,) or (k, n) boolean mask of *additional*
            non-reports injected by a fault model; combined with the
            sensing-range gating.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        times = np.asarray(times, dtype=float)
        rss = self.observe_distances(self.distances(positions), rng, drop_mask=drop_mask)
        return SampleBatch(rss=rss, times=times, positions=positions)

    def observe_static(self, position: np.ndarray, k: int, rng: np.random.Generator) -> SampleBatch:
        """Grouping sampling of a stationary target (k samples at one point,
        0.1 s apart from t = 0)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        position = np.asarray(position, dtype=float).reshape(2)
        times = 0.1 * np.arange(k)
        positions = np.broadcast_to(position, (k, 2)).copy()
        return self.observe(positions, times, rng)
