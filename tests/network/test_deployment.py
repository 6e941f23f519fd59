"""Tests for repro.network.deployment."""

import numpy as np
import pytest

from repro.network.deployment import (
    cross_deployment,
    grid_deployment,
    perturbed_grid_deployment,
    random_deployment,
)


class TestGridDeployment:
    def test_count(self):
        for n in (1, 4, 9, 10, 25, 40):
            assert grid_deployment(n, 100.0).shape == (n, 2)

    def test_inside_field(self):
        pts = grid_deployment(25, 100.0)
        assert np.all(pts >= 0) and np.all(pts <= 100)

    def test_margin_respected(self):
        pts = grid_deployment(16, 100.0, margin_frac=0.1)
        assert pts.min() >= 10.0 - 1e-9
        assert pts.max() <= 90.0 + 1e-9

    def test_perfect_square_is_regular(self):
        pts = grid_deployment(9, 100.0)
        xs = np.unique(np.round(pts[:, 0], 6))
        assert len(xs) == 3

    def test_no_duplicates(self):
        pts = grid_deployment(13, 100.0)
        assert len({tuple(p) for p in np.round(pts, 9).tolist()}) == 13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            grid_deployment(0, 100.0)


class TestRandomDeployment:
    def test_uniform_in_field(self, rng):
        pts = random_deployment(500, 100.0, rng)
        assert pts.shape == (500, 2)
        assert pts.min() >= 0 and pts.max() <= 100

    def test_reproducible_with_seed(self):
        a = random_deployment(10, 100.0, 7)
        b = random_deployment(10, 100.0, 7)
        assert np.array_equal(a, b)

    def test_min_separation_enforced(self, rng):
        pts = random_deployment(20, 100.0, rng, min_separation=5.0)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 5.0

    def test_impossible_separation_raises(self, rng):
        with pytest.raises(RuntimeError, match="could not place"):
            random_deployment(100, 10.0, rng, min_separation=10.0)

    def test_rejects_negative_separation(self, rng):
        with pytest.raises(ValueError):
            random_deployment(5, 100.0, rng, min_separation=-1.0)


class TestPerturbedGrid:
    def test_zero_jitter_equals_grid(self):
        assert np.allclose(perturbed_grid_deployment(9, 100.0, 0.0, 1), grid_deployment(9, 100.0))

    def test_jitter_moves_points(self):
        pts = perturbed_grid_deployment(9, 100.0, 3.0, 1)
        assert not np.allclose(pts, grid_deployment(9, 100.0))

    def test_clipped_to_field(self):
        pts = perturbed_grid_deployment(9, 100.0, 50.0, 1)
        assert pts.min() >= 0 and pts.max() <= 100

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            perturbed_grid_deployment(9, 100.0, -1.0, 1)


class TestCrossDeployment:
    def test_default_is_nine_motes(self):
        pts = cross_deployment(40.0)
        assert pts.shape == (9, 2)

    def test_centre_is_first(self):
        pts = cross_deployment(40.0)
        assert np.allclose(pts[0], [20.0, 20.0])

    def test_cross_symmetry(self):
        pts = cross_deployment(40.0)
        centre = pts[0]
        offsets = pts[1:] - centre
        # every offset's mirror is present
        for off in offsets:
            assert any(np.allclose(-off, o) for o in offsets)

    def test_arm_nodes_scaling(self):
        assert cross_deployment(40.0, arm_nodes=3).shape == (13, 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cross_deployment(0.0)
        with pytest.raises(ValueError):
            cross_deployment(40.0, arm_nodes=0)
