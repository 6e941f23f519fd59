"""Tests for repro.sim.modelmode — the paper's flip-model observations."""

import numpy as np
import pytest

from repro.geometry.faces import build_face_map
from repro.sim.modelmode import ModelSampler, run_model_tracking


@pytest.fixture
def sampler(four_nodes):
    return ModelSampler(four_nodes, c=1.5, k=5)


class TestModelSampler:
    def test_true_signature_matches_face_map(self, sampler, four_nodes, small_grid):
        fm = build_face_map(four_nodes, small_grid, 1.5)
        p = np.array([45.0, 45.0])
        # exact-point signature equals the rasterized one away from boundaries
        assert np.array_equal(
            sampler.true_signature(p), fm.signatures[fm.face_of_point(p)].astype(float)
        )

    def test_certain_pairs_read_exactly(self, sampler, rng):
        p = np.array([20.0, 20.0])
        sig = sampler.true_signature(p)
        for _ in range(10):
            v = sampler.sample_group_vector(p, rng)
            certain = sig != 0
            assert np.array_equal(v[certain], sig[certain])

    def test_flip_capture_rate_matches_formula(self, sampler, rng):
        # at the midpoint, several pairs are uncertain; each should be read
        # as flipped with probability 1 - (1/2)^(k-1) = 0.9375
        p = np.array([50.0, 50.0])
        sig = sampler.true_signature(p)
        unc = sig == 0
        assert unc.any()
        draws = np.stack([sampler.sample_group_vector(p, rng) for _ in range(4000)])
        captured = (draws[:, unc] == 0).mean()
        assert captured == pytest.approx(1 - sampler.miss_prob, abs=0.02)

    def test_oneshot_uncertain_is_fair_coin(self, sampler, rng):
        p = np.array([50.0, 50.0])
        sig = sampler.true_signature(p)
        unc = sig == 0
        draws = np.stack([sampler.sample_oneshot_vector(p, rng) for _ in range(4000)])
        vals = draws[:, unc]
        assert set(np.unique(vals)).issubset({-1.0, 1.0})
        assert vals.mean() == pytest.approx(0.0, abs=0.06)

    def test_validation(self, four_nodes):
        with pytest.raises(ValueError):
            ModelSampler(four_nodes, c=0.9)
        with pytest.raises(ValueError):
            ModelSampler(four_nodes, c=1.5, k=0)


class TestRunModelTracking:
    def test_tracks_with_low_error(self, four_nodes, small_grid, rng):
        fm = build_face_map(four_nodes, small_grid, 1.5)
        sampler = ModelSampler(four_nodes, c=1.5, k=5)
        times = np.arange(20) * 0.5
        positions = np.column_stack([30 + times, np.full_like(times, 40.0)])
        res = run_model_tracking(fm, sampler, positions, times, rng)
        assert len(res) == 20
        assert res.mean_error < 25.0

    def test_group_beats_oneshot(self, four_nodes, small_grid):
        """The core FTTT claim in its purest form: grouping sampling
        (which captures flips) beats one-shot sequences."""
        fm = build_face_map(four_nodes, small_grid, 1.5)
        sampler = ModelSampler(four_nodes, c=1.5, k=5)
        times = np.arange(40) * 0.5
        rng_pos = np.random.default_rng(0)
        positions = rng_pos.uniform(20, 80, (40, 2))
        group = run_model_tracking(fm, sampler, positions, times, 1, observation="group")
        oneshot = run_model_tracking(fm, sampler, positions, times, 1, observation="oneshot")
        assert group.mean_error < oneshot.mean_error

    def test_heuristic_matcher_option(self, four_nodes, small_grid, rng):
        fm = build_face_map(four_nodes, small_grid, 1.5)
        sampler = ModelSampler(four_nodes, c=1.5, k=5)
        times = np.arange(5) * 0.5
        positions = np.tile(np.array([40.0, 40.0]), (5, 1))
        res = run_model_tracking(fm, sampler, positions, times, rng, matcher="heuristic")
        assert len(res) == 5

    def test_validation(self, four_nodes, small_grid, rng):
        fm = build_face_map(four_nodes, small_grid, 1.5)
        sampler = ModelSampler(four_nodes, c=1.5, k=5)
        with pytest.raises(ValueError, match="observation"):
            run_model_tracking(fm, sampler, np.zeros((2, 2)), np.zeros(2), rng, observation="x")
        with pytest.raises(ValueError, match="matcher"):
            run_model_tracking(fm, sampler, np.zeros((2, 2)), np.zeros(2), rng, matcher="x")
        with pytest.raises(ValueError, match="equal length"):
            run_model_tracking(fm, sampler, np.zeros((2, 2)), np.zeros(3), rng)
