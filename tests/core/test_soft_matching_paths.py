"""Focused tests for the soft-signature matching paths and edge cases
spread across FaceMap / matchers / tracker wiring."""

import numpy as np
import pytest

from repro.core.extended import expected_extended_signatures
from repro.core.heuristic import HeuristicMatcher
from repro.core.matching import ExhaustiveMatcher
from repro.core.tracker import FTTTracker


@pytest.fixture
def soft(face_map):
    return expected_extended_signatures(
        face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, resolution_dbm=1.0
    )


class TestSignatureMatrix:
    def test_hard_matrix_is_float32(self, face_map):
        m = face_map._query(np.zeros((1, face_map.n_pairs), np.float32)).sigs
        assert m.dtype == np.float32
        assert m.shape == (face_map.n_faces, face_map.n_pairs)

    def test_soft_matrix_returned_when_attached(self, face_map, soft):
        query = face_map._query(np.zeros((1, face_map.n_pairs), np.float32), soft)
        assert query.sigs is soft
        assert not query.exact

    def test_soft_without_attachment(self, face_map, certain_map, soft):
        """A matrix not computed for the tracker's map is rejected."""
        assert certain_map.signatures.shape != soft.shape
        for fm, wrong in ((certain_map, soft), (face_map, soft[:, :-1]), (face_map, soft.T)):
            with pytest.raises(ValueError, match="soft"):
                FTTTracker(fm, mode="extended", soft_signatures=wrong)


class TestSoftMatching:
    def test_soft_match_own_expected_vector(self, face_map, soft):
        # matching a face's own soft signature must return that face
        for fid in (0, face_map.n_faces // 2):
            v = soft[fid].astype(float)
            ties, d2 = face_map.match(v, soft=soft)
            assert fid in ties
            assert d2 == pytest.approx(0.0, abs=1e-6)

    def test_soft_distances_differ_from_hard(self, face_map, soft):
        v = soft[0].astype(float)
        d_hard, d_soft = (
            face_map._sq_distances(face_map._query(v.astype(np.float32)[None], sigs))[0]
            for sigs in (None, soft)
        )
        assert not np.allclose(d_hard, d_soft)

    def test_soft_handles_nan(self, face_map, soft):
        v = soft[1].astype(float).copy()
        v[0] = np.nan
        ties, d2 = face_map.match(v, soft=soft)
        assert 1 in ties

    def test_exhaustive_matcher_soft_flag(self, face_map, soft):
        m = ExhaustiveMatcher(face_map, soft=soft)
        v = soft[2].astype(float)
        res = m.match(v)
        assert 2 in res.face_ids

    def test_heuristic_matcher_soft_flag(self, face_map, soft):
        m = HeuristicMatcher(face_map, soft=soft)
        v = soft[3].astype(float)
        res = m.match(v)  # exhaustive seed
        assert 3 in res.face_ids
        # now hill-climb to a neighbor
        nbrs = face_map.neighbors(int(res.face_id))
        if len(nbrs):
            target = int(nbrs[0])
            res2 = m.match(soft[target].astype(float))
            assert res2.sq_distance == pytest.approx(0.0, abs=1e-6)


class TestTrackerWiring:
    def test_extended_tracker_uses_soft_when_available(self, face_map, soft):
        tracker = FTTTracker(face_map, mode="extended", soft_signatures=soft)
        assert isinstance(tracker.matcher, HeuristicMatcher)
        assert tracker.matcher.soft is soft

    def test_extended_tracker_opt_out(self, face_map):
        """Without a matrix, extended vectors match the qualitative signatures."""
        tracker = FTTTracker(face_map, mode="extended")
        assert tracker.matcher.soft is None

    def test_exhaustive_extended_tracker(self, face_map, soft):
        tracker = FTTTracker(face_map, mode="extended", matcher="exhaustive", soft_signatures=soft)
        assert isinstance(tracker.matcher, ExhaustiveMatcher)
        assert tracker.matcher.soft is soft

    def test_soft_fallback_gate_is_looser(self, face_map, soft):
        hard = FTTTracker(face_map, mode="basic")
        soft = FTTTracker(face_map, mode="extended", soft_signatures=soft)
        assert soft.matcher.fallback_sq_distance > hard.matcher.fallback_sq_distance
