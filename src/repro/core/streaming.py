"""Online tracking session.

``FTTTracker.track`` consumes a finished batch list; a deployed base
station receives rounds one at a time and wants, at every instant, the
current estimate, a confidence signal, and a short history.  This module
provides that stateful wrapper, including the practical warts: rounds
arriving late or out of order (buffered and folded in by timestamp), gap
detection, and an online-smoothed output trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque

import numpy as np
from collections import deque

from repro.core.tracker import FTTTracker, TrackEstimate
from repro.rf.channel import SampleBatch

__all__ = ["SessionState", "TrackingSession"]


@dataclass(frozen=True)
class SessionState:
    """Snapshot of the session after a round is processed."""

    t: float
    position: np.ndarray  # raw per-round estimate
    smoothed_position: np.ndarray  # exponentially smoothed output
    confidence: float  # in (0, 1]; 1 = exact signature match
    face_id: int
    n_reporting: int
    rounds_processed: int
    gaps_detected: int


class TrackingSession:
    """Stateful online FTTT tracking.

    Parameters
    ----------
    tracker : the FTTT tracker to drive (its heuristic matcher state is
        exactly the consecutive-tracking accelerator of Algorithm 2).
    expected_period_s : nominal round spacing; a gap of more than three
        periods resets the matcher seed (the target may be anywhere by
        then) and counts as a gap.
    reorder_buffer : rounds arriving out of order are buffered this many
        deep and folded in sorted by timestamp.

    The output trace is exponentially smoothed with weight 0.5 on the new
    estimate, and the last 256 states are kept.
    """

    def __init__(
        self,
        tracker: FTTTracker,
        *,
        expected_period_s: float = 0.5,
        reorder_buffer: int = 4,
    ) -> None:
        if expected_period_s <= 0:
            raise ValueError(f"period must be positive, got {expected_period_s}")
        if reorder_buffer < 1:
            raise ValueError(f"reorder buffer must be >= 1, got {reorder_buffer}")
        self.tracker = tracker
        self.expected_period_s = expected_period_s
        self.reorder_buffer = reorder_buffer
        self._pending: list[SampleBatch] = []
        self._history: Deque[SessionState] = deque(maxlen=256)
        self._last_t: float | None = None
        self._smoothed: np.ndarray | None = None
        self._gaps = 0
        self._rounds = 0

    # -- feeding ------------------------------------------------------------

    def submit(self, batch: SampleBatch) -> "SessionState | None":
        """Submit one round; returns the new state, or None while the
        reorder buffer is still filling."""
        self._pending.append(batch)
        self._pending.sort(key=lambda b: float(b.times[0]))
        if len(self._pending) < self.reorder_buffer:
            return None
        return self._process(self._pending.pop(0))

    def flush(self) -> "list[SessionState]":
        """Process everything still buffered (end of stream)."""
        out = []
        for batch in sorted(self._pending, key=lambda b: float(b.times[0])):
            out.append(self._process(batch))
        self._pending.clear()
        return out

    # -- internals ---------------------------------------------------------

    def _process(self, batch: SampleBatch) -> SessionState:
        t = float(batch.times[0])
        if self._last_t is not None:
            if t < self._last_t:
                # arrived hopelessly late: fold in, but flag the gap logic off
                t = self._last_t
            elif t - self._last_t > 3.0 * self.expected_period_s:
                self._gaps += 1
                self.tracker.reset()  # stale matcher seed after a long gap
        est: TrackEstimate = self.tracker.localize_batch(batch)
        self._rounds += 1
        self._last_t = t
        if self._smoothed is None:
            self._smoothed = est.position.copy()
        else:
            self._smoothed = 0.5 * est.position + 0.5 * self._smoothed
        state = SessionState(
            t=t,
            position=est.position,
            smoothed_position=self._smoothed.copy(),
            confidence=self._confidence(est),
            face_id=int(est.face_ids[0]),
            n_reporting=est.n_reporting,
            rounds_processed=self._rounds,
            gaps_detected=self._gaps,
        )
        self._history.append(state)
        return state

    def _confidence(self, est: TrackEstimate) -> float:
        """Map the match's vector distance to (0, 1]: exp(-d/scale).

        An exact signature match gives 1; each vector-unit of mismatch
        roughly halves it.  Heuristic but monotone and bounded — intended
        for alarm thresholds, not probability calculus.
        """
        if not np.isfinite(est.sq_distance):
            return 0.0
        return float(np.exp(-np.sqrt(max(est.sq_distance, 0.0)) * 0.7))

    # -- queries ------------------------------------------------------------

    @property
    def state(self) -> "SessionState | None":
        return self._history[-1] if self._history else None

    @property
    def history(self) -> "list[SessionState]":
        return list(self._history)

    @property
    def gaps_detected(self) -> int:
        return self._gaps
