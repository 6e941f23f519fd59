"""Definition 7 similarity and the Eq. 7 masked distance.

The masked squared distance has one reference implementation, the oracle
tier's :func:`repro.oracle.oracle_masked_sq_distance`; the similarity is
the ``similarity`` property of :class:`~repro.core.matching.MatchResult`
and :class:`~repro.core.tracker.TrackEstimate`.  These tests pin both to
the paper's definitions and to the production kernel.
"""

import numpy as np
import pytest

from repro.core.matching import MatchResult
from repro.core.tracker import TrackEstimate
from repro.oracle import oracle_masked_sq_distance


def similarity(vector: np.ndarray, signature: np.ndarray) -> float:
    """Definition 7 similarity of a match at the oracle's masked distance."""
    d2 = oracle_masked_sq_distance(vector, signature)
    return MatchResult(
        face_ids=np.array([0]), sq_distance=d2, position=np.zeros(2), visited=1
    ).similarity


class TestVectorDifference:
    def test_plain_difference(self):
        # difference [1, 1] -> squared norm 2
        assert oracle_masked_sq_distance(np.array([1.0, 0.0]), np.array([0.0, -1.0])) == 2.0

    def test_star_masks_to_zero(self):
        assert oracle_masked_sq_distance(np.array([np.nan, 1.0]), np.array([1.0, 1.0])) == 0.0

    def test_star_masks_whatever_the_signature(self, face_map):
        """A ``*`` pair contributes nothing against -1, 0 or +1 alike, in the
        oracle and in the production kernel."""
        for s in (-1.0, 0.0, 1.0):
            assert oracle_masked_sq_distance(np.array([np.nan]), np.array([s])) == 0.0
        v = np.full(face_map.n_pairs, np.nan)
        assert np.array_equal(face_map.distances_to(v), np.zeros(face_map.n_faces, np.float32))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            oracle_masked_sq_distance(np.zeros(3), np.zeros(4))


class TestSimilarity:
    def test_definition7_reciprocal_norm(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([0.0, 0.0, 0.0])
        assert similarity(v1, v2) == pytest.approx(1.0)

    def test_exact_match_is_infinite(self):
        v = np.array([1.0, -1.0, 0.0])
        assert similarity(v, v) == float("inf")
        est = TrackEstimate(
            t=0.0,
            position=np.zeros(2),
            face_ids=np.array([0]),
            sq_distance=oracle_masked_sq_distance(v, v),
            n_reporting=3,
            visited_faces=1,
        )
        assert est.similarity == float("inf")

    def test_paper_fault_example_value(self):
        """§4.4-3 example: V_d = [1,1,1,-1,*,1] vs V_s(f8) = [1,1,1,0,0,0].

        The masked difference is [0,0,0,-1,masked,1], norm sqrt(2), so the
        Definition-7 similarity is 1/sqrt(2).  (The paper's prose quotes
        "1/2" for this example, which is 1/||.||^2 — inconsistent with its
        own Definition 7; we implement the definition.)
        """
        vd = np.array([1.0, 1.0, 1.0, -1.0, np.nan, 1.0])
        vs = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        assert similarity(vd, vs) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_symmetry(self, rng):
        a = rng.choice([-1.0, 0.0, 1.0], size=10)
        b = rng.choice([-1.0, 0.0, 1.0], size=10)
        assert similarity(a, b) == similarity(b, a)

    def test_more_disagreement_less_similarity(self):
        base = np.zeros(6)
        one_off = np.array([1.0, 0, 0, 0, 0, 0])
        two_off = np.array([1.0, 1.0, 0, 0, 0, 0])
        assert similarity(base, one_off) > similarity(base, two_off)


class TestSqDistance:
    def test_masked(self):
        assert oracle_masked_sq_distance(
            np.array([np.nan, 2.0]), np.array([5.0, 0.0])
        ) == pytest.approx(4.0)

    def test_zero_for_equal(self):
        v = np.array([1.0, -1.0])
        assert oracle_masked_sq_distance(v, v) == 0.0
