"""Tests for repro.geometry.apollonius — Eq. 3/4 and point classification."""

import math

import numpy as np
import pytest

from repro.geometry import apollonius
from repro.geometry.apollonius import (
    apollonius_circle,
    classify_distances_pairwise,
    classify_points_pairwise,
    effective_uncertainty_constant,
    uncertain_band_halfwidth,
    uncertain_boundary_circles,
    uncertainty_constant,
)
from repro.geometry.primitives import point_in_circle


class TestUncertaintyConstant:
    def test_matches_eq3_closed_form(self):
        eps, beta, sigma = 1.0, 4.0, 6.0
        a = math.log(10) / (10 * beta)
        expected = math.exp(a * eps + 0.5 * (a * math.sqrt(2) * sigma) ** 2)
        assert uncertainty_constant(eps, beta, sigma) == pytest.approx(expected)

    def test_exceeds_one_with_noise(self):
        assert uncertainty_constant(0.0, 4.0, 6.0) > 1.0

    def test_equals_one_in_ideal_limit(self):
        assert uncertainty_constant(0.0, 4.0, 0.0) == pytest.approx(1.0)

    def test_monotone_in_resolution(self):
        cs = [uncertainty_constant(e, 4.0, 6.0) for e in (0.5, 1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_monotone_decreasing_in_beta(self):
        cs = [uncertainty_constant(1.0, b, 6.0) for b in (2.0, 3.0, 4.0)]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            uncertainty_constant(-1.0, 4.0, 6.0)
        with pytest.raises(ValueError):
            uncertainty_constant(1.0, 0.0, 6.0)
        with pytest.raises(ValueError):
            uncertainty_constant(1.0, 4.0, -0.1)


class TestEffectiveUncertaintyConstant:
    def test_exceeds_paper_constant_for_multisample_groups(self):
        # groups keep flipping farther out than the single-expectation Eq. 3
        c_paper = uncertainty_constant(1.0, 4.0, 6.0)
        c_eff = effective_uncertainty_constant(1.0, 4.0, 6.0, k=5)
        assert c_eff > c_paper

    def test_grows_with_k(self):
        cs = [effective_uncertainty_constant(1.0, 4.0, 6.0, k=k) for k in (2, 5, 9)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_grows_with_sigma(self):
        cs = [effective_uncertainty_constant(1.0, 4.0, s, k=5) for s in (2.0, 6.0, 10.0)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_noiseless_limit_reduces_to_resolution_band(self):
        c = effective_uncertainty_constant(1.0, 4.0, 0.0, k=5)
        assert c == pytest.approx(10 ** (1.0 / 40.0))

    def test_always_above_one(self):
        assert effective_uncertainty_constant(0.0, 4.0, 0.0, k=1) > 1.0

    def test_rejects_bad_capture_prob(self):
        with pytest.raises(ValueError, match="capture_prob"):
            effective_uncertainty_constant(1.0, 4.0, 6.0, k=5, capture_prob=1.5)


class TestApolloniusCircle:
    def test_matches_paper_eq4(self):
        # nodes at (d, 0) and (-d, 0); Eq. 4 gives centre and radius in d units
        d, c = 10.0, 1.5
        circle = apollonius_circle(np.array([-d, 0.0]), np.array([d, 0.0]), c)
        assert circle.cx == pytest.approx((c**2 + 1) / (c**2 - 1) * d)
        assert circle.cy == pytest.approx(0.0)
        assert circle.r == pytest.approx(2 * c * d / (c**2 - 1))

    def test_points_on_circle_satisfy_ratio(self):
        a = np.array([0.0, 0.0])
        b = np.array([8.0, 0.0])
        ratio = 2.0
        circle = apollonius_circle(a, b, ratio)
        theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        on_circle = circle.center + circle.r * np.column_stack([np.cos(theta), np.sin(theta)])
        for p in on_circle:
            da = np.hypot(*(p - a))
            db = np.hypot(*(p - b))
            assert da / db == pytest.approx(ratio, rel=1e-9)

    def test_ratio_below_one_encloses_near_point(self):
        a = np.array([0.0, 0.0])
        b = np.array([10.0, 0.0])
        circle = apollonius_circle(a, b, 0.5)
        assert point_in_circle(a, circle)
        assert not point_in_circle(b, circle)

    def test_unit_ratio_rejected(self):
        with pytest.raises(ValueError, match="bisector"):
            apollonius_circle(np.zeros(2), np.ones(2), 1.0)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            apollonius_circle(np.zeros(2), np.ones(2), -2.0)


class TestUncertainBoundaryCircles:
    def test_axisymmetric_about_bisector(self):
        p_i = np.array([-5.0, 0.0])
        p_j = np.array([5.0, 0.0])
        near_i, near_j = uncertain_boundary_circles(p_i, p_j, 1.4)
        # bisector is x = 0: centres mirror, radii equal
        assert near_i.cx == pytest.approx(-near_j.cx)
        assert near_i.r == pytest.approx(near_j.r)

    def test_requires_c_above_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            uncertain_boundary_circles(np.zeros(2), np.ones(2), 1.0)


class TestClassification:
    def test_three_regions_on_axis(self):
        # nodes at x=0 and x=10, C=1.5; on-axis points span all three values
        nodes = np.array([[0.0, 0.0], [10.0, 0.0]])
        pts = np.array([[1.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
        sig = classify_points_pairwise(pts, nodes, 1.5)
        assert sig[:, 0].tolist() == [1, 0, -1]

    def test_symmetric_midpoint_is_uncertain(self):
        nodes = np.array([[0.0, 0.0], [10.0, 0.0]])
        sig = classify_points_pairwise(np.array([[5.0, 3.0]]), nodes, 1.2)
        assert sig[0, 0] == 0

    def test_values_in_valid_set(self, four_nodes, rng):
        pts = rng.uniform(0, 100, (200, 2))
        sig = classify_points_pairwise(pts, four_nodes, 1.3)
        assert set(np.unique(sig)).issubset({-1, 0, 1})

    def test_c_equal_one_gives_almost_no_zeros(self, four_nodes, rng):
        pts = rng.uniform(0, 100, (500, 2))
        sig = classify_points_pairwise(pts, four_nodes, 1.0)
        assert (sig == 0).mean() < 0.01

    def test_chunking_invariant(self, four_nodes, rng, monkeypatch):
        pts = rng.uniform(0, 100, (50, 2))
        monkeypatch.setattr(apollonius, "CHUNK_PAIRS", 1)
        a = classify_points_pairwise(pts, four_nodes, 1.4)
        monkeypatch.setattr(apollonius, "CHUNK_PAIRS", 1000)
        b = classify_points_pairwise(pts, four_nodes, 1.4)
        assert np.array_equal(a, b)

    def test_sensing_range_overrides_band(self):
        # node j is out of range from the point: pair forced to +1 even though
        # the distance ratio is inside the uncertain band
        nodes = np.array([[0.0, 0.0], [50.0, 0.0]])
        pt = np.array([[24.0, 0.0]])  # d_i=24, d_j=26 — ratio inside band for C=1.5
        free = classify_points_pairwise(pt, nodes, 1.5)
        gated = classify_points_pairwise(pt, nodes, 1.5, sensing_range=25.0)
        assert free[0, 0] == 0
        assert gated[0, 0] == 1

    def test_sensing_range_both_out_is_zero(self):
        nodes = np.array([[0.0, 0.0], [10.0, 0.0]])
        pt = np.array([[500.0, 500.0]])
        sig = classify_points_pairwise(pt, nodes, 1.5, sensing_range=25.0)
        assert sig[0, 0] == 0

    def test_classify_distances_rejects_c_below_one(self):
        with pytest.raises(ValueError):
            classify_distances_pairwise(np.ones(3), np.ones(3), 0.9)


class TestUncertainBandHalfwidth:
    def test_zero_width_at_c_one(self):
        assert uncertain_band_halfwidth(10.0, 1.0) == pytest.approx(0.0)

    def test_grows_with_c(self):
        ws = [uncertain_band_halfwidth(10.0, c) for c in (1.1, 1.5, 2.0)]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_scales_linearly_with_separation(self):
        w1 = uncertain_band_halfwidth(10.0, 1.5)
        w2 = uncertain_band_halfwidth(20.0, 1.5)
        assert w2 == pytest.approx(2 * w1)

    def test_matches_axis_crossings(self):
        # verify against explicit classification along the pair axis
        length, c = 20.0, 1.6
        nodes = np.array([[0.0, 0.0], [length, 0.0]])
        xs = np.linspace(0.01, length - 0.01, 4001)
        pts = np.column_stack([xs, np.zeros_like(xs)])
        sig = classify_points_pairwise(pts, nodes, c)[:, 0]
        band = xs[sig == 0]
        measured_halfwidth = (band.max() - band.min()) / 2
        assert measured_halfwidth == pytest.approx(
            uncertain_band_halfwidth(length, c), abs=0.02
        )
