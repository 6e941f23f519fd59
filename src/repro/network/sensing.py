"""Grouping-sampling driver (Definition 3).

For each localization, every sensor samples k times "almost synchronously"
within a short interval delta-t.  :class:`GroupSampler` generates those
samples along a moving-target trace, with optional per-node clock jitter —
samples are taken at each node's own (slightly offset) instants, against
the target position at that instant, exactly like a real unsynchronized
network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.rf.channel import RssChannel, SampleBatch

__all__ = ["GroupSampler"]

PathFn = Callable[[np.ndarray], np.ndarray]  # times (m,) -> positions (m, 2)


@dataclass(frozen=True)
class GroupSampler:
    """Produces grouping samplings for a moving target.

    Parameters
    ----------
    channel : the RSS observation channel (deployment + propagation + noise).
    k : samples per grouping (paper: 3-9).
    sampling_rate_hz : intra-group sample spacing is ``1/rate`` (Table 1: 10 Hz).
    clock_jitter_s : per-node clock offset, drawn uniformly in
        ``[0, clock_jitter_s]`` fresh for every group; 0 = perfectly
        synchronous sampling.
    """

    channel: RssChannel
    k: int = 5
    sampling_rate_hz: float = 10.0
    clock_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.sampling_rate_hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.sampling_rate_hz}")
        if self.clock_jitter_s < 0:
            raise ValueError(f"clock jitter must be non-negative, got {self.clock_jitter_s}")

    @property
    def group_duration_s(self) -> float:
        """Wall-clock span of one grouping sampling."""
        return self.k / self.sampling_rate_hz

    def sample_group(
        self,
        path_fn: PathFn,
        t0: float,
        rng: np.random.Generator,
        *,
        drop_mask: np.ndarray | None = None,
    ) -> SampleBatch:
        """One grouping sampling starting at *t0* along the trace *path_fn*.

        With clock jitter enabled, node *j*'s i-th sample observes the
        target where it actually is at ``t0 + i/rate + offset_j``; the
        returned batch's ``positions`` are the nominal (un-jittered)
        instants' true positions, which is what tracking error is measured
        against.
        """
        k, n = self.k, self.channel.n_sensors
        base_times = t0 + np.arange(k) / self.sampling_rate_hz
        nominal_positions = np.atleast_2d(path_fn(base_times))
        if nominal_positions.shape != (k, 2):
            raise ValueError(
                f"path_fn returned shape {nominal_positions.shape}, expected ({k}, 2)"
            )

        if self.clock_jitter_s == 0.0:
            return self.channel.observe(nominal_positions, base_times, rng, drop_mask=drop_mask)

        offsets = rng.uniform(0.0, self.clock_jitter_s, size=n)
        t_matrix = base_times[:, None] + offsets[None, :]  # (k, n)
        pos_flat = np.atleast_2d(path_fn(t_matrix.ravel()))  # (k*n, 2)
        positions = pos_flat.reshape(k, n, 2)
        diff = positions - self.channel.nodes[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])  # (k, n)
        rss = self.channel.observe_distances(dist, rng, drop_mask=drop_mask)
        return SampleBatch(rss=rss, times=base_times, positions=nominal_positions)

    def sample_static(self, position: np.ndarray, rng: np.random.Generator) -> SampleBatch:
        """Grouping sampling of a stationary target, starting at t = 0."""
        position = np.asarray(position, dtype=float).reshape(2)

        def path_fn(times: np.ndarray) -> np.ndarray:
            return np.broadcast_to(position, (len(np.atleast_1d(times)), 2)).copy()

        return self.sample_group(path_fn, 0.0, rng)
