"""Tests for repro.core.diagnostics."""

import numpy as np
import pytest

from repro.core.diagnostics import (
    ambiguity_census,
    face_separability,
    least_informative_pairs,
    pair_informativeness,
)
from repro.geometry.faces import FaceMap, build_face_map
from repro.geometry.grid import Grid


class TestPairInformativeness:
    def test_range(self, face_map):
        info = pair_informativeness(face_map)
        assert info.shape == (face_map.n_pairs,)
        assert np.all(info >= 0.0)
        assert np.all(info <= np.log2(3) + 1e-9)

    def test_symmetric_square_pairs_balanced(self, face_map):
        # the four-node square splits the field evenly for every pair
        info = pair_informativeness(face_map)
        assert info.min() > 1.0

    def test_remote_pair_is_uninformative(self):
        # two sensors crammed in a corner: their bisector barely cuts the field
        nodes = np.array([[2.0, 2.0], [4.0, 2.0], [50.0, 50.0]])
        fm = build_face_map(nodes, Grid.square(100.0, 2.0), 1.2)
        info = pair_informativeness(fm)
        # pair (0,1) (the corner pair) carries less information than the
        # pairs involving the central sensor
        assert info[0] < info[1]
        assert info[0] < info[2]

    def test_least_informative_selection(self, face_map):
        worst = least_informative_pairs(face_map, k=2)
        info = pair_informativeness(face_map)
        assert set(worst.tolist()) == set(np.argsort(info)[:2].tolist())

    def test_least_informative_k_clamped(self, face_map):
        assert len(least_informative_pairs(face_map, k=999)) == face_map.n_pairs
        with pytest.raises(ValueError):
            least_informative_pairs(face_map, k=0)


class TestFaceSeparability:
    def test_fields_present(self, face_map):
        sep = face_separability(face_map)
        assert set(sep) == {
            "min_sq_distance",
            "median_sq_distance",
            "mean_sq_distance",
            "unit_distance_fraction",
        }
        assert sep["min_sq_distance"] >= 1.0  # distinct signatures differ
        assert sep["min_sq_distance"] <= sep["median_sq_distance"] <= sep["mean_sq_distance"] + 1e-9

    def test_subsampling_path(self):
        # force the large-map sampling branch
        from repro.network.deployment import random_deployment

        nodes = random_deployment(15, 100.0, 0, min_separation=4.0)
        fm = build_face_map(nodes, Grid.square(100.0, 2.0), 1.8)
        assert fm.n_faces > 500
        sep = face_separability(fm)
        assert sep["min_sq_distance"] >= 1.0

    def test_single_face_rejected(self, face_map):
        fm = face_map
        tiny = FaceMap(
            fm.nodes,
            fm.grid,
            fm.c,
            fm.signatures[:1],
            fm.centroids[:1],
            np.zeros_like(fm.cell_face),
            np.array([fm.grid.n_cells]),
            np.zeros(2, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            face_separability(tiny)


class TestAmbiguityCensus:
    def test_uncorrupted_never_ties(self, face_map):
        census = ambiguity_census(face_map, 100, corruption=0, rng=0)
        assert census.tie_fraction == 0.0
        assert census.max_tie_size == 1

    def test_corruption_creates_ties(self, face_map):
        census = ambiguity_census(face_map, 300, corruption=2, rng=0)
        assert census.n_trials == 300
        assert census.tie_fraction > 0.0
        assert census.mean_tie_size >= 2.0
        assert census.max_tie_size >= 2

    def test_more_corruption_more_ambiguity(self, face_map):
        low = ambiguity_census(face_map, 300, corruption=1, rng=0)
        high = ambiguity_census(face_map, 300, corruption=4, rng=0)
        assert high.tie_fraction >= low.tie_fraction - 0.05

    def test_reproducible(self, face_map):
        a = ambiguity_census(face_map, 50, rng=7)
        b = ambiguity_census(face_map, 50, rng=7)
        assert a == b

    def test_validation(self, face_map):
        with pytest.raises(ValueError):
            ambiguity_census(face_map, 0)
        with pytest.raises(ValueError):
            ambiguity_census(face_map, 10, corruption=-1)
