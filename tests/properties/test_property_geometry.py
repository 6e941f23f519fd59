"""Property-based tests for the geometry layer."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.apollonius import (
    apollonius_circle,
    classify_points_pairwise,
    uncertainty_constant,
)
from repro.geometry.grid import Grid
from repro.geometry.primitives import enumerate_pairs, pair_index

coords = st.floats(-50.0, 50.0, allow_nan=False)
ratios = st.floats(1.05, 5.0, allow_nan=False)


@given(coords, coords, coords, coords, ratios)
@settings(max_examples=100, deadline=None)
def test_apollonius_circle_ratio_invariant(ax, ay, bx, by, ratio):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    assume(np.hypot(*(a - b)) > 1e-3)
    circle = apollonius_circle(a, b, ratio)
    theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    pts = circle.center + circle.r * np.column_stack([np.cos(theta), np.sin(theta)])
    da = np.hypot(pts[:, 0] - ax, pts[:, 1] - ay)
    db = np.hypot(pts[:, 0] - bx, pts[:, 1] - by)
    assert np.allclose(da / db, ratio, rtol=1e-6, atol=1e-9)


@given(
    st.floats(0.0, 3.0),
    st.floats(2.0, 5.0),
    st.floats(0.0, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_uncertainty_constant_at_least_one(eps, beta, sigma):
    assert uncertainty_constant(eps, beta, sigma) >= 1.0


@given(st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_pair_enumeration_roundtrip(n):
    i_idx, j_idx = enumerate_pairs(n)
    for p in range(len(i_idx)):
        assert pair_index(int(i_idx[p]), int(j_idx[p]), n) == p


@given(st.integers(0, 10_000), st.floats(1.1, 3.0))
@settings(max_examples=50, deadline=None)
def test_classification_antisymmetric_under_node_swap(seed, c):
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(0, 100, (2, 2))
    assume(np.hypot(*(nodes[0] - nodes[1])) > 1.0)
    pts = rng.uniform(0, 100, (20, 2))
    fwd = classify_points_pairwise(pts, nodes, c)[:, 0]
    rev = classify_points_pairwise(pts, nodes[::-1], c)[:, 0]
    assert np.array_equal(fwd, -rev)


@given(st.integers(1, 1000), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_grid_cell_roundtrip(seed, cell_size):
    rng = np.random.default_rng(seed)
    g = Grid.square(50.0, float(cell_size))
    pts = rng.uniform(0, 50, (20, 2))
    idx = g.cell_of(pts)
    centers = g.cell_centers[idx]
    # every point is within half a cell diagonal of its cell centre
    d = np.hypot(pts[:, 0] - centers[:, 0], pts[:, 1] - centers[:, 1])
    assert np.all(d <= g.cell_size * np.sqrt(2.0) / 2.0 + 1e-9)
