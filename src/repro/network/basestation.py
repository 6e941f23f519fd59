"""Base-station aggregation.

Sensors report their grouping-sampling columns to a base station (the
paper aggregates "in the base stations or in the cluster heads", §4.3-2).
The base station adds the last unreliability layer — report packets can be
lost in transit — and hands complete rounds to whatever tracker is
attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rf.channel import SampleBatch

__all__ = ["LocalizationRound", "BaseStation"]


@dataclass(frozen=True)
class LocalizationRound:
    """One aggregated localization round as seen by the base station."""

    round_index: int
    t0: float
    batch: SampleBatch
    lost_reports: np.ndarray  # (n,) bool — report packet lost in transit

    @property
    def effective_rss(self) -> np.ndarray:
        """RSS matrix with lost reports blanked to NaN."""
        rss = self.batch.rss.copy()
        rss[:, self.lost_reports] = np.nan
        return rss

    @property
    def n_reporting(self) -> int:
        return int((~np.isnan(self.effective_rss).all(axis=0)).sum())


@dataclass
class BaseStation:
    """Collects sensor reports round by round.

    Parameters
    ----------
    packet_loss_p : probability that a sensor's whole report for a round is
        lost on the uplink (independent per sensor per round).
    """

    packet_loss_p: float = 0.0
    rounds: list[LocalizationRound] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (0.0 <= self.packet_loss_p <= 1.0):
            raise ValueError(f"packet loss must be in [0, 1], got {self.packet_loss_p}")

    def aggregate(self, batch: SampleBatch, t0: float, rng: np.random.Generator) -> LocalizationRound:
        """Receive one grouping sampling, applying uplink packet loss."""
        n = batch.n_sensors
        if self.packet_loss_p > 0.0:
            lost = rng.random(n) < self.packet_loss_p
        else:
            lost = np.zeros(n, dtype=bool)
        rnd = LocalizationRound(
            round_index=len(self.rounds),
            t0=t0,
            batch=batch,
            lost_reports=lost,
        )
        self.rounds.append(rnd)
        return rnd

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def reset(self) -> None:
        self.rounds.clear()
