"""Focused tests for the soft-signature matching paths and edge cases
spread across FaceMap / matchers / tracker wiring."""

import numpy as np
import pytest

from repro.core.extended import attach_soft_signatures
from repro.core.heuristic import HeuristicMatcher
from repro.core.matching import ExhaustiveMatcher
from repro.core.tracker import FTTTracker


@pytest.fixture
def soft_map(face_map):
    attach_soft_signatures(
        face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, resolution_dbm=1.0
    )
    return face_map


class TestSignatureMatrix:
    def test_hard_matrix_is_float32(self, face_map):
        m = face_map.signature_matrix()
        assert m.dtype == np.float32
        assert m.shape == (face_map.n_faces, face_map.n_pairs)

    def test_soft_matrix_returned_when_attached(self, soft_map):
        m = soft_map.signature_matrix(soft=True)
        assert m is soft_map.soft_signatures

    def test_soft_without_attachment(self, certain_map):
        with pytest.raises(ValueError, match="soft"):
            certain_map.signature_matrix(soft=True)


class TestSoftMatching:
    def test_soft_match_own_expected_vector(self, soft_map):
        # matching a face's own soft signature must return that face
        for fid in (0, soft_map.n_faces // 2):
            v = soft_map.soft_signatures[fid].astype(float)
            ties, d2 = soft_map.match(v, soft=True)
            assert fid in ties
            assert d2 == pytest.approx(0.0, abs=1e-6)

    def test_soft_distances_differ_from_hard(self, soft_map):
        v = soft_map.soft_signatures[0].astype(float)
        d_hard, d_soft = (
            soft_map._sq_distances(soft_map._query(v.astype(np.float32)[None], soft))[0]
            for soft in (False, True)
        )
        assert not np.allclose(d_hard, d_soft)

    def test_soft_handles_nan(self, soft_map):
        v = soft_map.soft_signatures[1].astype(float).copy()
        v[0] = np.nan
        ties, d2 = soft_map.match(v, soft=True)
        assert 1 in ties

    def test_exhaustive_matcher_soft_flag(self, soft_map):
        m = ExhaustiveMatcher(soft_map, soft=True)
        v = soft_map.soft_signatures[2].astype(float)
        res = m.match(v)
        assert 2 in res.face_ids

    def test_heuristic_matcher_soft_flag(self, soft_map):
        m = HeuristicMatcher(soft_map, soft=True)
        v = soft_map.soft_signatures[3].astype(float)
        res = m.match(v)  # exhaustive seed
        assert 3 in res.face_ids
        # now hill-climb to a neighbor
        nbrs = soft_map.neighbors(int(res.face_id))
        if len(nbrs):
            target = int(nbrs[0])
            res2 = m.match(soft_map.soft_signatures[target].astype(float))
            assert res2.sq_distance == pytest.approx(0.0, abs=1e-6)


class TestTrackerWiring:
    def test_extended_tracker_uses_soft_when_available(self, soft_map):
        tracker = FTTTracker(soft_map, mode="extended")
        assert tracker.soft_signatures
        assert isinstance(tracker.matcher, HeuristicMatcher)
        assert tracker.matcher.soft

    def test_extended_tracker_opt_out(self, soft_map):
        tracker = FTTTracker(soft_map, mode="extended", soft_signatures=False)
        assert not tracker.soft_signatures

    def test_exhaustive_extended_tracker(self, soft_map):
        tracker = FTTTracker(soft_map, mode="extended", matcher="exhaustive")
        assert isinstance(tracker.matcher, ExhaustiveMatcher)
        assert tracker.matcher.soft

    def test_soft_fallback_gate_is_looser(self, soft_map):
        hard = FTTTracker(soft_map, mode="basic")
        soft = FTTTracker(soft_map, mode="extended")
        assert soft.matcher.fallback_sq_distance > hard.matcher.fallback_sq_distance
