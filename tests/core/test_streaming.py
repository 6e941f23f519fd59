"""Tests for repro.core.streaming — the online tracking session."""

import numpy as np
import pytest

from repro.core.streaming import TrackingSession
from repro.core.tracker import FTTTracker
from repro.rf.channel import SampleBatch


def batch_at(nodes, point, t0, k=3, noise=0.0, rng=None):
    rng = rng or np.random.default_rng(0)
    d = np.hypot(nodes[:, 0] - point[0], nodes[:, 1] - point[1])
    rss = np.tile(-40.0 - 40.0 * np.log10(np.maximum(d, 1e-3)), (k, 1))
    if noise:
        rss = rss + rng.normal(0, noise, rss.shape)
    return SampleBatch(
        rss=rss,
        times=t0 + np.arange(k) / 10.0,
        positions=np.tile(np.asarray(point, float), (k, 1)),
    )


@pytest.fixture
def session(face_map):
    tracker = FTTTracker(face_map, comparator_eps=40 * np.log10(1.5))
    return TrackingSession(tracker, expected_period_s=0.5, reorder_buffer=1)


class TestBasicFlow:
    def test_state_after_round(self, session, four_nodes):
        state = session.submit(batch_at(four_nodes, [45.0, 55.0], 0.0))
        assert state is not None
        assert state.rounds_processed == 1
        assert 0.0 <= state.confidence <= 1.0
        assert np.all(np.isfinite(state.position))

    def test_history_accumulates(self, session, four_nodes, rng):
        for i in range(6):
            session.submit(batch_at(four_nodes, rng.uniform(30, 70, 2), 0.5 * i, noise=2.0, rng=rng))
        assert len(session.history) == 6
        assert session.state.rounds_processed == 6

    def test_exact_match_high_confidence(self, session, four_nodes):
        state = session.submit(batch_at(four_nodes, [40.0, 55.0], 0.0))
        assert state.confidence > 0.9  # noiseless + consistent deadband

    def test_smoothed_output_lags_raw(self, session, four_nodes):
        session.submit(batch_at(four_nodes, [30.0, 30.0], 0.0))
        state = session.submit(batch_at(four_nodes, [70.0, 70.0], 0.5))
        # smoothed is between old and new raw estimates
        assert state.smoothed_position[0] < state.position[0] + 1e-9


class TestReordering:
    def test_buffer_holds_until_full(self, face_map, four_nodes):
        tracker = FTTTracker(face_map)
        session = TrackingSession(tracker, reorder_buffer=3)
        assert session.submit(batch_at(four_nodes, [40.0, 40.0], 0.0)) is None
        assert session.submit(batch_at(four_nodes, [41.0, 40.0], 0.5)) is None
        state = session.submit(batch_at(four_nodes, [42.0, 40.0], 1.0))
        assert state is not None
        assert state.t == 0.0  # oldest pops first

    def test_out_of_order_rounds_processed_in_time_order(self, face_map, four_nodes):
        tracker = FTTTracker(face_map)
        session = TrackingSession(tracker, reorder_buffer=2)
        session.submit(batch_at(four_nodes, [40.0, 40.0], 1.0))  # late round first
        state = session.submit(batch_at(four_nodes, [41.0, 40.0], 0.5))
        assert state.t == 0.5  # the earlier round came out first

    def test_flush_drains_everything(self, session, four_nodes):
        session.submit(batch_at(four_nodes, [40.0, 40.0], 0.0))
        session.tracker.reset()
        session_multi = TrackingSession(session.tracker, reorder_buffer=4)
        for i in range(3):
            session_multi.submit(batch_at(four_nodes, [40.0 + i, 40.0], 0.5 * i))
        states = session_multi.flush()
        assert len(states) == 3
        assert [s.t for s in states] == [0.0, 0.5, 1.0]


class TestGaps:
    def test_gap_detected_and_matcher_reset(self, session, four_nodes):
        session.submit(batch_at(four_nodes, [40.0, 40.0], 0.0))
        state = session.submit(batch_at(four_nodes, [70.0, 70.0], 10.0))  # 20 periods later
        assert state.gaps_detected == 1

    def test_no_gap_for_regular_cadence(self, session, four_nodes):
        for i in range(4):
            state = session.submit(batch_at(four_nodes, [40.0, 40.0], 0.5 * i))
        assert state.gaps_detected == 0


class TestValidation:
    def test_bad_params(self, face_map):
        tracker = FTTTracker(face_map)
        with pytest.raises(ValueError):
            TrackingSession(tracker, expected_period_s=0.0)
        with pytest.raises(ValueError):
            TrackingSession(tracker, reorder_buffer=0)
