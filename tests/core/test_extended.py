"""Tests for repro.core.extended — soft (quantitative) signatures of §6."""

import numpy as np
import pytest

from repro.core import extended
from repro.core.extended import expected_extended_signatures
from repro.core.tracker import FTTTracker


@pytest.fixture
def soft(face_map):
    return expected_extended_signatures(
        face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, resolution_dbm=1.0
    )


class TestExpectedSignatures:
    def test_shape_and_range(self, face_map, soft):
        assert soft.shape == (face_map.n_faces, face_map.n_pairs)
        assert np.all(soft >= -1.0) and np.all(soft <= 1.0)

    def test_sign_agrees_with_qualitative(self, face_map, soft):
        # wherever the qualitative signature is +-1, the expected value
        # points the same way
        hard = face_map.signatures
        pos = hard == 1
        neg = hard == -1
        assert np.all(soft[pos] > 0)
        assert np.all(soft[neg] < 0)

    def test_uncertain_band_is_small_magnitude(self, face_map, soft):
        zero = face_map.signatures == 0
        if zero.any():
            # expected values inside the band are closer to 0 than outside
            assert np.abs(soft[zero]).mean() < np.abs(soft[~zero]).mean()

    def test_noiseless_collapses_to_hard_signs(self, face_map):
        soft = expected_extended_signatures(
            face_map, path_loss_exponent=4.0, noise_sigma_dbm=0.0, resolution_dbm=0.0
        )
        # without noise the expected value is exactly the distance-order sign
        assert set(np.unique(np.sign(soft))).issubset({-1.0, 0.0, 1.0})
        assert np.abs(soft).max() == pytest.approx(1.0)

    def test_sensing_range_forces_extremes(self, four_nodes, small_grid):
        from repro.geometry.faces import build_face_map

        fm = build_face_map(four_nodes, small_grid, c=1.5, sensing_range=30.0)
        soft = expected_extended_signatures(
            fm,
            path_loss_exponent=4.0,
            noise_sigma_dbm=6.0,
            sensing_range=30.0,
        )
        assert np.all(np.abs(soft) <= 1.0)

    def test_chunking_invariant(self, face_map, monkeypatch):
        monkeypatch.setattr(extended, "CHUNK_PAIRS", 1)
        a = expected_extended_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        monkeypatch.setattr(extended, "CHUNK_PAIRS", 512)
        b = expected_extended_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        assert np.allclose(a, b)

    def test_validation(self, face_map):
        with pytest.raises(ValueError):
            expected_extended_signatures(face_map, path_loss_exponent=0.0, noise_sigma_dbm=6.0)
        with pytest.raises(ValueError):
            expected_extended_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=-1.0)


class TestAttach:
    """Soft signatures are attached to the tracker that matches them."""

    def test_attach_is_idempotent(self, face_map, soft):
        signatures = face_map.signatures.copy()
        again = expected_extended_signatures(
            face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, resolution_dbm=1.0
        )
        assert np.array_equal(again, soft)
        assert np.array_equal(face_map.signatures, signatures)

    def test_enables_soft_tracker(self, face_map, soft):
        tracker = FTTTracker(face_map, mode="extended", soft_signatures=soft)
        assert tracker.matcher.soft is soft

    def test_basic_mode_ignores_soft(self, face_map, soft):
        FTTTracker(face_map, mode="extended", soft_signatures=soft)
        tracker = FTTTracker(face_map, mode="basic")
        assert tracker.matcher.soft is None
