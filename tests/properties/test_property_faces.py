"""Property-based tests for face-map invariants over random deployments."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import ExhaustiveMatcher
from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.network.deployment import random_deployment


@st.composite
def face_maps(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(2, 7))
    c = draw(st.floats(1.05, 2.5))
    nodes = random_deployment(n, 60.0, seed, min_separation=5.0)
    return build_face_map(nodes, Grid.square(60.0, 4.0), c)


@given(face_maps())
@settings(max_examples=30, deadline=None)
def test_cells_partition_the_field(fm):
    assert fm.cell_counts.sum() == fm.grid.n_cells
    assert np.all(fm.cell_counts > 0)
    assert fm.cell_face.min() >= 0
    assert fm.cell_face.max() == fm.n_faces - 1


@given(face_maps())
@settings(max_examples=30, deadline=None)
def test_signatures_unique_per_face(fm):
    seen = {tuple(s.tolist()) for s in fm.signatures}
    assert len(seen) == fm.n_faces


@given(face_maps())
@settings(max_examples=30, deadline=None)
def test_adjacency_symmetric_and_loopless(fm):
    for fid in range(fm.n_faces):
        nbrs = fm.neighbors(fid)
        assert fid not in nbrs
        for nb in nbrs:
            assert fid in fm.neighbors(int(nb))


@given(face_maps())
@settings(max_examples=30, deadline=None)
def test_centroids_inside_field(fm):
    assert np.all(fm.centroids >= 0.0)
    assert np.all(fm.centroids <= 60.0)


@given(face_maps())
@settings(max_examples=30, deadline=None)
def test_own_signature_matches_exactly(fm):
    for fid in (0, fm.n_faces // 2, fm.n_faces - 1):
        ties, d2 = fm.match(fm.signatures[fid].astype(float))
        assert d2 == 0.0
        assert fid in ties


@given(face_maps(), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_match_position_always_in_field(fm, seed):
    rng = np.random.default_rng(seed)
    v = rng.choice([-1.0, 0.0, 1.0], size=fm.n_pairs)
    pos = ExhaustiveMatcher(fm).match(v).position
    assert np.all(pos >= 0.0) and np.all(pos <= 60.0)


@given(face_maps(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_masking_components_never_increases_best_distance(fm, seed):
    rng = np.random.default_rng(seed)
    v = rng.choice([-1.0, 0.0, 1.0], size=fm.n_pairs)
    _, base = fm.match(v)
    v_masked = v.copy()
    v_masked[rng.integers(0, fm.n_pairs)] = np.nan
    _, masked = fm.match(v_masked)
    assert masked <= base + 1e-6
