"""Tests for repro.core.matching — exhaustive maximum-likelihood matching."""

import numpy as np

from repro.core.matching import ExhaustiveMatcher, MatchResult


class TestExhaustiveMatcher:
    def test_exact_signature_found(self, face_map):
        m = ExhaustiveMatcher(face_map)
        fid = face_map.n_faces // 3
        res = m.match(face_map.signatures[fid].astype(float))
        assert fid in res.face_ids
        assert res.sq_distance == 0.0

    def test_visits_all_faces(self, face_map):
        m = ExhaustiveMatcher(face_map)
        res = m.match(face_map.signatures[0].astype(float))
        assert res.visited == face_map.n_faces

    def test_position_is_tie_mean(self, face_map):
        m = ExhaustiveMatcher(face_map)
        res = m.match(face_map.signatures[0].astype(float))
        assert np.allclose(res.position, face_map.centroids[res.face_ids].mean(axis=0))

    def test_perturbed_vector_still_matches_nearby(self, face_map):
        m = ExhaustiveMatcher(face_map)
        fid = face_map.n_faces // 2
        v = face_map.signatures[fid].astype(float)
        # flip one component by one level
        idx = int(np.argmax(np.abs(v)))
        v2 = v.copy()
        v2[idx] -= np.sign(v2[idx]) if v2[idx] != 0 else 1.0
        res = m.match(v2)
        assert res.sq_distance <= 1.0

    def test_face_id_is_the_first_tie(self):
        res_multi = MatchResult(np.array([3, 5]), 0.0, np.zeros(2), 1)
        assert res_multi.face_id == 3

    def test_reset_is_noop(self, face_map):
        m = ExhaustiveMatcher(face_map)
        m.reset()  # must not raise
