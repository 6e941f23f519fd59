"""Model-based tracking: bootstrap particle filter on raw RSS.

The heavyweight of the related-work family ("Beyond the Kalman Filter:
Particle Filters for Tracking Applications"): particles carry position and
velocity, propagate under a random-walk-velocity prior, and are weighted
by the Gaussian RSS likelihood of the full grouping sampling under the
log-distance model.  It uses strictly more information than FTTT (the raw
dB values and the exact noise model, not just orderings) at substantially
more computation — the classic accuracy/complexity trade-off the paper's
related work describes.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracker import TrackEstimate, Tracker
from repro.rf.pathloss import LogDistancePathLoss
from repro.rng import ensure_rng

__all__ = ["ParticleFilterTracker"]


class ParticleFilterTracker(Tracker):
    """Bootstrap (SIR) particle filter with a near-constant-velocity prior.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    pathloss : propagation model used in the likelihood (assumed known).
    noise_sigma_dbm : per-sample RSS noise std used in the likelihood.
    field_size : particles reflected into the field.
    sensing_range_m : sensors that heard nothing contribute a
        censored-likelihood term (target probably outside their range).

    Propagation and resampling draw from a private stream seeded with 0,
    so runs are reproducible.
    """

    n_particles = 500
    velocity_sigma = 1.5  # per-round velocity diffusion (m/s)
    resample_threshold = 0.5  # effective-sample-size fraction triggering resampling

    def __init__(
        self,
        nodes: np.ndarray,
        pathloss: LogDistancePathLoss,
        *,
        noise_sigma_dbm: float = 6.0,
        field_size: float = 100.0,
        sensing_range_m: "float | None" = 40.0,
    ) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)
        self.pathloss = pathloss
        if noise_sigma_dbm <= 0:
            raise ValueError(f"noise sigma must be positive, got {noise_sigma_dbm}")
        self.noise_sigma = noise_sigma_dbm
        self.field_size = field_size
        self.sensing_range_m = sensing_range_m
        self._rng = ensure_rng(0)
        self._pos: np.ndarray | None = None  # (P, 2)
        self._vel: np.ndarray | None = None  # (P, 2)
        self._weights: np.ndarray | None = None
        self._last_t: float | None = None

    # -- internals ---------------------------------------------------------

    def _init_particles(self) -> None:
        self._pos = self._rng.uniform(0.0, self.field_size, size=(self.n_particles, 2))
        self._vel = self._rng.normal(0.0, 1.0, size=(self.n_particles, 2))
        self._weights = np.full(self.n_particles, 1.0 / self.n_particles)

    def _propagate(self, dt: float) -> None:
        self._vel = self._vel + self._rng.normal(0.0, self.velocity_sigma, self._vel.shape)
        self._pos = self._pos + self._vel * dt
        # reflect at the field boundary
        over = self._pos > self.field_size
        under = self._pos < 0.0
        self._pos = np.where(over, 2 * self.field_size - self._pos, self._pos)
        self._pos = np.where(under, -self._pos, self._pos)
        self._pos = np.clip(self._pos, 0.0, self.field_size)
        self._vel = np.where(over | under, -self._vel, self._vel)

    def _log_likelihood(self, rss: np.ndarray) -> np.ndarray:
        """Log-likelihood of the grouping sampling for every particle."""
        diff = self._pos[:, None, :] - self.nodes[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])  # (P, n)
        mean_rss = self.pathloss.rss_dbm(dist)  # (P, n)
        loglik = np.zeros(self.n_particles)
        inv_two_var = 1.0 / (2.0 * self.noise_sigma**2)
        for row in rss:  # k rows — small
            heard = ~np.isnan(row)
            if heard.any():
                resid = row[heard][None, :] - mean_rss[:, heard]
                loglik -= (resid**2).sum(axis=1) * inv_two_var
            if self.sensing_range_m is not None and (~heard).any():
                # censored term: silent sensors say "probably out of range";
                # soft penalty for particles well inside a silent sensor's disc
                inside = self.sensing_range_m - dist[:, ~heard]  # >0 = inside
                penalty = np.clip(inside / self.sensing_range_m, 0.0, 1.0)
                loglik -= 2.0 * penalty.sum(axis=1)
        return loglik

    def _effective_sample_size(self) -> float:
        return 1.0 / float((self._weights**2).sum())

    def _resample(self) -> None:
        # systematic resampling
        positions = (np.arange(self.n_particles) + self._rng.random()) / self.n_particles
        cum = np.cumsum(self._weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, positions)
        self._pos = self._pos[idx]
        self._vel = self._vel[idx]
        self._weights = np.full(self.n_particles, 1.0 / self.n_particles)

    # -- tracker interface ----------------------------------------------------

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self._as_rss(rss)
        if self._pos is None:
            self._init_particles()
        else:
            dt = max(t - (self._last_t if self._last_t is not None else t), 1e-3)
            self._propagate(dt)
        self._last_t = t

        loglik = self._log_likelihood(rss)
        loglik -= loglik.max()
        w = self._weights * np.exp(loglik)
        total = w.sum()
        if total <= 0 or not np.isfinite(total):
            self._init_particles()  # filter divergence: restart
            w = self._weights.copy()
            total = w.sum()
        self._weights = w / total
        estimate = (self._pos * self._weights[:, None]).sum(axis=0)
        if self._effective_sample_size() < self.resample_threshold * self.n_particles:
            self._resample()

        return TrackEstimate(
            t=t,
            position=np.clip(estimate, 0.0, self.field_size),
            face_ids=np.array([-1]),
            sq_distance=float("nan"),
            n_reporting=self._n_reporting(rss),
            visited_faces=self.n_particles,
        )

    def reset(self) -> None:
        self._pos = None
        self._vel = None
        self._weights = None
        self._last_t = None
