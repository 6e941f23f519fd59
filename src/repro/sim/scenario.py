"""Scenario assembly: one self-consistent simulated world.

A scenario fixes the deployment, propagation, mobility trace, and both
face maps (uncertain for FTTT, certain/bisector for the baselines), and
manufactures trackers bound to those maps.  All trackers built from the
same scenario therefore see *identical* physics — the comparisons in the
paper's figures are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np

from repro.baselines.direct_mle import DirectMLETracker
from repro.baselines.nearest import NearestNodeTracker
from repro.baselines.path_matching import PathMatchingTracker
from repro.baselines.pknn import PkNNTracker
from repro.baselines.range_mle import RangeMLETracker
from repro.baselines.weighted_centroid import WeightedCentroidTracker
from repro.config import SimulationConfig
from repro.core.tracker import FTTTracker
from repro.geometry.apollonius import effective_uncertainty_constant, uncertainty_constant
from repro.geometry.cache import get_face_map
from repro.geometry.faces import FaceMap
from repro.geometry.grid import Grid
from repro.mobility.base import MobilityModel
from repro.mobility.waypoint import RandomWaypoint
from repro.network.deployment import cross_deployment, grid_deployment, random_deployment
from repro.network.sensing import GroupSampler
from repro.rf.channel import RssChannel
from repro.rf.noise import GaussianNoise
from repro.rf.pathloss import LogDistancePathLoss
from repro.rng import ensure_rng, spawn_rngs

__all__ = ["Scenario", "make_scenario", "replications", "replication_scenarios", "TRACKER_NAMES"]

TRACKER_NAMES = (
    "fttt",
    "fttt-extended",
    "fttt-exhaustive",
    "fttt-robust",
    "fttt-zero",
    "pm",
    "direct-mle",
    "range-mle",
    "pknn",
    "weighted-centroid",
    "kalman",
    "particle",
    "nearest",
)


@dataclass
class Scenario:
    """A fully-specified simulated world plus tracker factory."""

    config: SimulationConfig
    nodes: np.ndarray
    channel: RssChannel
    sampler: GroupSampler
    mobility: MobilityModel
    uncertainty_c: float
    _face_map: FaceMap | None = field(default=None, repr=False)
    _certain_map: FaceMap | None = field(default=None, repr=False)

    @property
    def n_sensors(self) -> int:
        return len(self.nodes)

    @cached_property
    def grid(self) -> Grid:
        return Grid.square(self.config.field_size_m, self.config.grid.cell_size_m)

    @property
    def face_map(self) -> FaceMap:
        """Uncertain-boundary face map (built lazily; served from the
        content-addressed cache when the same world was divided before —
        see :mod:`repro.geometry.cache`)."""
        if self._face_map is None:
            self._face_map = get_face_map(
                self.nodes,
                self.grid,
                self.uncertainty_c,
                sensing_range=self.config.sensing_range_m,
                split_components=self.config.grid.split_components,
                kind="uncertain",
            )
        return self._face_map

    def face_map_key(self) -> str:
        """Content-addressed cache key of the uncertain face map.

        The same key :func:`~repro.geometry.cache.get_face_map` derives —
        used to publish prebuilt maps into shared memory so pool workers
        attach instead of rebuilding (see :mod:`repro.geometry.shm`).
        """
        from repro.geometry.cache import face_map_cache_key

        return face_map_cache_key(
            self.nodes,
            self.grid,
            self.uncertainty_c,
            sensing_range=self.config.sensing_range_m,
            split_components=self.config.grid.split_components,
            kind="uncertain",
        )

    @property
    def certain_map(self) -> FaceMap:
        """Bisector-only face map for the certain-sequence baselines."""
        if self._certain_map is None:
            self._certain_map = get_face_map(
                self.nodes,
                self.grid,
                1.0,
                sensing_range=None,
                split_components=self.config.grid.split_components,
                kind="certain",
            )
        return self._certain_map

    def make_tracker(self, name: str):
        """Build a tracker bound to this scenario's maps and configuration.

        Names: ``fttt`` (basic, heuristic matching), ``fttt-extended``
        (quantitative vectors), ``fttt-exhaustive`` (basic, full scan),
        ``fttt-robust`` (basic + the fault-lab degradation policy),
        ``fttt-zero`` (naive-zeroing strawman: ``*`` becomes 0),
        ``pm``, ``direct-mle``, ``range-mle``, ``pknn``,
        ``weighted-centroid``, ``kalman``, ``particle``, ``nearest``.
        """
        cfg = self.config
        eps = cfg.resolution_dbm
        if name == "fttt":
            return FTTTracker(self.face_map, mode="basic", matcher="heuristic", comparator_eps=eps)
        if name == "fttt-robust":
            from repro.core.tracker import DegradationPolicy

            return FTTTracker(
                self.face_map,
                mode="basic",
                matcher="heuristic",
                comparator_eps=eps,
                degradation=DegradationPolicy(),
            )
        if name == "fttt-zero":
            from repro.faultlab.strawmen import ZeroFillFTTT

            return ZeroFillFTTT(self.face_map, mode="basic", matcher="heuristic", comparator_eps=eps)
        if name == "fttt-extended":
            from repro.core.extended import attach_soft_signatures

            attach_soft_signatures(
                self.face_map,
                path_loss_exponent=self.config.path_loss_exponent,
                noise_sigma_dbm=self.config.noise_sigma_dbm,
                resolution_dbm=self.config.resolution_dbm,
                sensing_range=self.config.sensing_range_m,
            )
            return FTTTracker(
                self.face_map, mode="extended", matcher="heuristic", comparator_eps=eps
            )
        if name == "fttt-exhaustive":
            return FTTTracker(self.face_map, mode="basic", matcher="exhaustive", comparator_eps=eps)
        if name == "pm":
            return PathMatchingTracker(self.certain_map, vmax_mps=cfg.target_speed_max_mps)
        if name == "direct-mle":
            return DirectMLETracker(self.certain_map)
        if name == "range-mle":
            return RangeMLETracker(self.nodes, self.channel.pathloss, field_size=cfg.field_size_m)
        if name == "kalman":
            from repro.baselines.kalman import KalmanTracker

            inner = RangeMLETracker(self.nodes, self.channel.pathloss, field_size=cfg.field_size_m)
            return KalmanTracker(inner, field_size=cfg.field_size_m)
        if name == "particle":
            from repro.baselines.particle import ParticleFilterTracker

            return ParticleFilterTracker(
                self.nodes,
                self.channel.pathloss,
                noise_sigma_dbm=cfg.noise_sigma_dbm,
                field_size=cfg.field_size_m,
                sensing_range_m=cfg.sensing_range_m,
            )
        if name == "pknn":
            return PkNNTracker(self.nodes)
        if name == "weighted-centroid":
            return WeightedCentroidTracker(self.nodes)
        if name == "nearest":
            return NearestNodeTracker(self.nodes)
        raise ValueError(f"unknown tracker {name!r}; choose from {TRACKER_NAMES}")


def make_scenario(
    config: SimulationConfig | None = None,
    *,
    deployment: str = "random",
    seed: "int | np.random.Generator | None" = None,
    nodes: np.ndarray | None = None,
    mobility: MobilityModel | None = None,
    c_mode: str = "calibrated",
) -> Scenario:
    """Build a scenario from a config.

    Parameters
    ----------
    config : simulation parameters (defaults to the paper's baseline point).
    deployment : ``"random"`` (uniform, Fig. 10c-d), ``"grid"``
        (Fig. 10a-b), or ``"cross"`` (the Fig. 13 "+" shape); ignored when
        explicit *nodes* are given.
    seed : drives deployment and the mobility trace (observation noise uses
        the separate RNG passed to the runner).
    mobility : override the default random-waypoint trace.
    c_mode : how the uncertainty constant is derived — ``"calibrated"``
        (default) matches the k-sample flip statistics
        (:func:`~repro.geometry.apollonius.effective_uncertainty_constant`);
        ``"paper"`` uses the paper's Eq. 3 expectation form verbatim.
    """
    config = config or SimulationConfig()
    rng = ensure_rng(seed)
    if nodes is None:
        if deployment == "random":
            nodes = random_deployment(
                config.n_sensors, config.field_size_m, rng, min_separation=2.0 * config.grid.cell_size_m
            )
        elif deployment == "grid":
            nodes = grid_deployment(config.n_sensors, config.field_size_m)
        elif deployment == "cross":
            nodes = cross_deployment(config.field_size_m, arm_nodes=max(1, (config.n_sensors - 1) // 4))
        else:
            raise ValueError(f"unknown deployment {deployment!r}")
    else:
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))

    pathloss = LogDistancePathLoss(
        exponent=config.path_loss_exponent, p0_dbm=config.tx_power_dbm
    )
    channel = RssChannel(
        nodes=nodes,
        pathloss=pathloss,
        noise=GaussianNoise(config.noise_sigma_dbm),
        sensing_range_m=config.sensing_range_m,
    )
    sampler = GroupSampler(
        channel=channel,
        k=config.sampling_times,
        sampling_rate_hz=config.sampling_rate_hz,
    )
    if mobility is None:
        mobility = RandomWaypoint(
            field_size=config.field_size_m,
            duration_s=config.duration_s,
            speed_range=(config.target_speed_min_mps, config.target_speed_max_mps),
            seed=rng,
        )
    if c_mode == "calibrated":
        c = effective_uncertainty_constant(
            config.resolution_dbm,
            config.path_loss_exponent,
            config.noise_sigma_dbm,
            config.sampling_times,
        )
    elif c_mode == "paper":
        c = uncertainty_constant(
            config.resolution_dbm, config.path_loss_exponent, config.noise_sigma_dbm
        )
    else:
        raise ValueError(f"unknown c_mode {c_mode!r}")
    return Scenario(
        config=config,
        nodes=nodes,
        channel=channel,
        sampler=sampler,
        mobility=mobility,
        uncertainty_c=c,
    )


def replications(
    config: SimulationConfig,
    *,
    n_reps: int,
    seed: int,
    make: Callable[..., Scenario] = make_scenario,
) -> Iterator[tuple[Scenario, np.random.Generator]]:
    """The replication protocol of every physical-channel sweep.

    Spawns two independent streams per replication from *seed*: replication
    ``r`` runs on the world ``make(config, seed=streams[2r])`` and draws its
    observation noise from ``streams[2r + 1]``.  Returns an iterator of
    ``(scenario, noise_rng)`` pairs that builds each world only when the
    caller asks for it, so a loop over them holds one world at a time.
    ``n_reps < 1`` raises ``ValueError`` at the call, before any world is
    built: a mean over no replications is no result.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    rngs = spawn_rngs(seed, 2 * n_reps)
    return ((make(config, seed=rngs[2 * rep]), rngs[2 * rep + 1]) for rep in range(n_reps))


def replication_scenarios(
    config: SimulationConfig,
    *,
    n_reps: int,
    seed: int,
    deployment: str = "random",
) -> list[Scenario]:
    """The worlds ``replicate_mean_error(config, seed=seed, ...)`` visits.

    A list view of :func:`replications`, so a sweep parent can prebuild
    the face maps its pool tasks will need and publish them into shared
    memory.  Maps are *not* built here; access ``scenario.face_map`` to
    build.
    """
    make = partial(make_scenario, deployment=deployment)
    return [scenario for scenario, _ in replications(config, n_reps=n_reps, seed=seed, make=make)]
