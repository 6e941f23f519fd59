"""The outdoor playground scenario (Fig. 13) end to end.

Nine motes in a "+" on a square playground, a walker carrying the 4 kHz
tone source along a "⌐"-shaped trace at changeable 1-5 m/s, gateway frame
loss — and the unmodified FTTT stack on top.  The uncertainty constant is
derived from the acoustic channel's effective path-loss exponent at the
deployment scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tracker import FTTTracker, TrackResult
from repro.geometry.apollonius import uncertainty_constant
from repro.geometry.faces import FaceMap, build_face_map
from repro.geometry.grid import Grid
from repro.mobility.paths import PiecewiseLinearPath, l_shape_path
from repro.network.deployment import cross_deployment
from repro.rf.acoustic import AcousticToneChannel
from repro.rf.channel import SampleBatch
from repro.rng import ensure_rng
from repro.testbed.gateway import Mib520Gateway
from repro.testbed.motes import IrisMote, MoteReading

__all__ = ["OutdoorSystem", "build_outdoor_system"]


@dataclass
class OutdoorSystem:
    """A complete simulated outdoor deployment."""

    field_size: float
    motes: list[IrisMote]
    channel: AcousticToneChannel
    gateway: Mib520Gateway
    path: PiecewiseLinearPath
    k: int
    sampling_rate_hz: float
    grid_cell_m: float = 0.5
    _face_map: FaceMap | None = field(default=None, repr=False)

    @property
    def positions(self) -> np.ndarray:
        return np.stack([m.position for m in self.motes])

    @property
    def face_map(self) -> FaceMap:
        if self._face_map is None:
            # effective beta at the typical mote-target distance scale
            typical_d = self.field_size / 4.0
            beta = self.channel.effective_pathloss_exponent(typical_d)
            c = uncertainty_constant(
                resolution_dbm=max(m.adc_step_db for m in self.motes),
                path_loss_exponent=beta,
                noise_sigma_dbm=self.channel.noise_sigma_db,
            )
            grid = Grid.square(self.field_size, self.grid_cell_m)
            self._face_map = build_face_map(self.positions, grid, c)
        return self._face_map

    def sample_round(self, t0: float, rng: np.random.Generator) -> SampleBatch:
        """One grouping sampling: every mote samples k times, frames radioed in."""
        times = t0 + np.arange(self.k) / self.sampling_rate_hz
        positions = self.path.position(times)
        readings: list[list[MoteReading | None]] = []
        for row, t in enumerate(times):
            readings.append(
                [m.sense(positions[row], self.channel, float(t), rng) for m in self.motes]
            )
        matrix = self.gateway.collect_round(readings, rng)
        return SampleBatch(rss=matrix, times=times, positions=positions)

    def run(
        self,
        *,
        mode: str = "basic",
        rng: "np.random.Generator | int | None" = None,
    ) -> TrackResult:
        """Track the walker over the whole trace with basic or extended FTTT."""
        rng = ensure_rng(rng)
        period = self.k / self.sampling_rate_hz
        n_rounds = max(1, int(self.path.duration_s / period))
        soft = None
        if mode == "extended":
            from repro.core.extended import expected_extended_signatures

            typical_d = self.field_size / 4.0
            soft = expected_extended_signatures(
                self.face_map,
                path_loss_exponent=self.channel.effective_pathloss_exponent(typical_d),
                noise_sigma_dbm=self.channel.noise_sigma_db,
                resolution_dbm=max(m.adc_step_db for m in self.motes),
            )
        tracker = FTTTracker(self.face_map, mode=mode, matcher="heuristic", soft_signatures=soft)
        batches = [self.sample_round(r * period, rng) for r in range(n_rounds)]
        return tracker.track(batches)


def build_outdoor_system(
    *,
    field_size: float = 40.0,
    seed: "int | np.random.Generator | None" = 0,
) -> OutdoorSystem:
    """Assemble the Fig. 13 system: 9 IRIS motes in a "+" (0.5 dB ADC
    steps, gain offsets drawn with a 1 dB spread), a 4 dB-noise tone
    channel, 5 % gateway frame loss, k = 5 samples at 10 Hz, and a walker
    on the "⌐" trace at changeable 1-5 m/s."""
    rng = ensure_rng(seed)
    positions = cross_deployment(field_size, arm_nodes=2)
    motes = [
        IrisMote(
            mote_id=i,
            position=p,
            adc_step_db=0.5,
            gain_offset_db=float(rng.normal(0.0, 1.0)),
        )
        for i, p in enumerate(positions)
    ]
    channel = AcousticToneChannel(noise_sigma_db=4.0)
    gateway = Mib520Gateway(n_motes=len(motes), frame_loss_p=0.05)
    path = l_shape_path(field_size, rng=rng)
    return OutdoorSystem(
        field_size=field_size,
        motes=motes,
        channel=channel,
        gateway=gateway,
        path=path,
        k=5,
        sampling_rate_hz=10.0,
    )
