"""Tests for repro.geometry.faces — the face map (Definitions 6 & 8, Lemma 1)."""

import numpy as np
import pytest

from repro.core.matching import ExhaustiveMatcher
from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.faces import build_certain_face_map, build_face_map
from repro.geometry.grid import Grid


class TestConstruction:
    def test_face_count_positive(self, face_map):
        assert face_map.n_faces > 1

    def test_pair_count(self, face_map):
        assert face_map.n_pairs == 6  # C(4,2)

    def test_every_cell_assigned(self, face_map):
        assert face_map.cell_face.shape == (face_map.grid.n_cells,)
        assert face_map.cell_face.min() >= 0
        assert face_map.cell_face.max() == face_map.n_faces - 1

    def test_cell_counts_sum_to_grid(self, face_map):
        assert face_map.cell_counts.sum() == face_map.grid.n_cells

    def test_signatures_unique(self, face_map):
        sigs = {tuple(s.tolist()) for s in face_map.signatures}
        assert len(sigs) == face_map.n_faces  # Lemma 1: signature <-> face

    def test_rejects_single_node(self, small_grid):
        with pytest.raises(ValueError, match="two nodes"):
            build_face_map(np.array([[5.0, 5.0]]), small_grid, 1.5)

    def test_centroids_inside_field(self, face_map):
        c = face_map.centroids
        assert np.all(c >= 0) and np.all(c <= 100)


class TestFaceAccess:
    def test_face_object_fields(self, face_map):
        f = face_map.face(0)
        assert f.face_id == 0
        assert f.signature.shape == (6,)
        assert f.n_cells >= 1
        assert f.area_m2 == pytest.approx(f.n_cells * 4.0)  # 2 m cells

    def test_face_out_of_range(self, face_map):
        with pytest.raises(IndexError):
            face_map.face(face_map.n_faces)
        with pytest.raises(IndexError):
            face_map.face(-1)

    def test_faces_list_complete(self, face_map):
        faces = face_map.faces()
        assert len(faces) == face_map.n_faces

    def test_face_of_point_consistent_with_signature(self, face_map, rng):
        for _ in range(20):
            p = rng.uniform(0, 100, 2)
            fid = face_map.face_of_point(p)
            cell = face_map.grid.cell_centers[face_map.grid.cell_of(p)]
            expected = classify_points_pairwise(cell, face_map.nodes, 1.5)[0]
            assert np.array_equal(face_map.signatures[fid], expected)


class TestAdjacency:
    def test_symmetric(self, face_map):
        for fid in range(face_map.n_faces):
            for nb in face_map.neighbors(fid):
                assert fid in face_map.neighbors(int(nb))

    def test_no_self_loops(self, face_map):
        for fid in range(face_map.n_faces):
            assert fid not in face_map.neighbors(fid)

    def test_neighbors_out_of_range(self, face_map):
        with pytest.raises(IndexError):
            face_map.neighbors(face_map.n_faces)

    def test_theorem1_unit_distance_dominates(self, four_nodes):
        # Theorem 1: neighbor faces differ by exactly 1 in vector distance.
        # On a raster a single cell step can jump two boundaries at once
        # where circles run close, so the theorem holds for the majority of
        # links and essentially all links stay within two boundary crossings.
        fm = build_face_map(four_nodes, Grid.square(100.0, 1.0), c=1.5)
        unit, near, total = 0, 0, 0
        for fid in range(fm.n_faces):
            s = fm.signatures[fid].astype(int)
            for nb in fm.neighbors(fid):
                d2 = int(((fm.signatures[nb].astype(int) - s) ** 2).sum())
                unit += d2 == 1
                near += d2 <= 4
                total += 1
        assert total > 0
        assert unit / total > 0.6
        assert near / total > 0.95


class TestMatching:
    def test_exact_signature_matches_own_face(self, face_map):
        for fid in (0, face_map.n_faces // 2, face_map.n_faces - 1):
            v = face_map.signatures[fid].astype(float)
            ties, d2 = face_map.match(v)
            assert d2 == 0.0
            assert fid in ties

    def test_masked_components_ignored(self, face_map):
        fid = face_map.n_faces // 2
        v = face_map.signatures[fid].astype(float)
        v[0] = np.nan
        ties, d2 = face_map.match(v)
        assert d2 == 0.0
        assert fid in ties

    def test_distances_shape_and_nonnegative(self, face_map):
        v = face_map.signatures[0].astype(float)
        d2 = face_map.distances_to(v)
        assert d2.shape == (face_map.n_faces,)
        assert np.all(d2 >= 0)

    def test_distance_vector_dimension_checked(self, face_map):
        with pytest.raises(ValueError, match="shape"):
            face_map.distances_to(np.zeros(3))

    def test_match_position_mean_of_ties(self, face_map):
        v = face_map.signatures[0].astype(float)
        pos = ExhaustiveMatcher(face_map).match(v).position
        ties, _ = face_map.match(v)
        assert np.allclose(pos, face_map.centroids[ties].mean(axis=0))

    def test_soft_matching_requires_attachment(self, face_map):
        with pytest.raises(ValueError, match="soft"):
            face_map.match(face_map.signatures[0].astype(float), soft=True)


class TestCertainVsUncertain:
    def test_uncertain_map_has_zero_components(self, face_map):
        assert (face_map.signatures == 0).any()

    def test_certain_map_has_fewer_or_equal_zero_components(self, four_nodes, small_grid):
        cm = build_certain_face_map(four_nodes, small_grid)
        fm = build_face_map(four_nodes, small_grid, c=1.5)
        assert (cm.signatures == 0).mean() < (fm.signatures == 0).mean()

    def test_certain_map_records_c_one(self, certain_map):
        assert certain_map.c == 1.0

    def test_certain_faces_vanish_with_large_c(self, four_nodes, small_grid):
        # Fig. 3(c): when uncertainty grows, faces with fully-certain
        # signatures disappear
        fm_small = build_face_map(four_nodes, small_grid, c=1.1)
        fm_large = build_face_map(four_nodes, small_grid, c=3.0)
        assert fm_small.n_certain_faces > 0
        assert fm_large.n_certain_faces < fm_small.n_certain_faces


class TestComponentSplitting:
    def test_split_yields_at_least_as_many_faces(self, four_nodes, small_grid):
        merged = build_face_map(four_nodes, small_grid, c=1.5, split_components=False)
        split = build_face_map(four_nodes, small_grid, c=1.5, split_components=True)
        assert split.n_faces >= merged.n_faces

    def test_split_faces_have_valid_signatures(self, four_nodes, small_grid):
        split = build_face_map(four_nodes, small_grid, c=1.5, split_components=True)
        assert set(np.unique(split.signatures)).issubset({-1, 0, 1})
        assert split.cell_counts.sum() == split.grid.n_cells


class TestTieTolerance:
    """The tie threshold scales with the distance, not a fixed 1e-6.

    With P = C(n, 2) float32 accumulation terms, two mathematically equal
    squared distances can drift apart by ULPs of the total — far more
    than 1e-6 once distances are large — and an absolute threshold then
    splits true ties.  Regression for the large-n mis-grouping.
    """

    @staticmethod
    def _synthetic_map(soft_signatures: np.ndarray) -> "FaceMap":
        from repro.geometry.faces import FaceMap

        n_faces, n_pairs = soft_signatures.shape
        # invert C(n, 2) = P for the node count
        n = int(round((1 + np.sqrt(1 + 8 * n_pairs)) / 2))
        assert n * (n - 1) // 2 == n_pairs
        grid = Grid.square(2.0, 1.0)
        return FaceMap(
            nodes=np.zeros((n, 2)),
            grid=grid,
            c=1.5,
            signatures=np.zeros((n_faces, n_pairs), dtype=np.int8),
            centroids=np.arange(2.0 * n_faces).reshape(n_faces, 2),
            cell_face=np.zeros(grid.n_cells, dtype=np.int64),
            cell_counts=np.full(n_faces, grid.n_cells // n_faces, dtype=np.int64),
            adj_indptr=np.arange(n_faces + 1, dtype=np.int64),
            adj_indices=np.arange(n_faces, dtype=np.int64) ^ 1,
            soft_signatures=soft_signatures,
        )

    def test_large_n_float32_drift_still_ties(self):
        n_pairs = 1035  # C(46, 2): the large-n regime the fix targets
        rng = np.random.default_rng(3)
        x = rng.random(n_pairs).astype(np.float32) * 2 - 1
        permuted = x[rng.permutation(n_pairs)]
        fm = self._synthetic_map(np.stack([x, permuted]))
        # the two rows hold the same multiset of values, so both squared
        # distances to the zero vector are mathematically identical; the
        # float32 sums differ by accumulation order
        d2 = fm._sq_distances(fm._query(np.zeros((1, n_pairs), np.float32), True))[0]
        drift = abs(float(d2[0]) - float(d2[1]))
        assert drift <= fm.tie_tolerance(float(d2.min()))
        ties, best = fm.match(np.zeros(n_pairs), soft=True)
        assert len(ties) == 2  # the absolute 1e-6 threshold split these
        assert fm.tie_tolerance(best) > 1e-6

    def test_small_distances_keep_legacy_threshold(self, face_map):
        # an exact match (best == 0) has infinite Def. 7 similarity:
        # nothing at any positive distance can tie with it
        assert face_map.tie_tolerance(0.0) == 0.0
        assert face_map.tie_tolerance(1.0) == 1e-6

    def test_exact_match_unaffected(self, face_map):
        v = face_map.signatures[0].astype(float)
        ties, d2 = face_map.match(v)
        assert d2 == 0.0
        # qualitative distances are exact integers; a widened threshold
        # below 1 can never merge distinct ones
        assert face_map.tie_tolerance(float(4 * face_map.n_pairs)) < 1.0
