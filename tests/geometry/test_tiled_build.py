"""Tests for tiled / parallel face-map construction.

The contract is absolute: ``build_face_map(..., workers=N, tile_cells=M)``
must produce a map *bit-identical* to the serial builder for every
combination — same signatures, same face numbering, same
adjacency CSR.  Tiling only changes which process classifies which rows;
classification is elementwise per cell, so any divergence is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import faces
from repro.geometry.faces import build_certain_face_map, build_face_map
from repro.geometry.tiling import classify_cells_tiled, default_tile_cells

FIELDS = ("signatures", "centroids", "cell_face", "cell_counts", "adj_indptr", "adj_indices")


def _assert_identical(a, b):
    for f in FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert a.signatures.dtype == b.signatures.dtype
    assert a.n_faces == b.n_faces


class TestTiledUncertain:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_cells": 1},
            {"tile_cells": 7},
            {"tile_cells": 100_000},  # one tile covering everything
            {"workers": 1, "tile_cells": 37},
            {"workers": 2},
            {"workers": 2, "tile_cells": 53},
        ],
    )
    def test_bit_identical_to_serial(self, four_nodes, small_grid, face_map, kwargs):
        tiled = build_face_map(four_nodes, small_grid, 1.5, **kwargs)
        _assert_identical(face_map, tiled)

    def test_sensing_range_respected(self, four_nodes, small_grid):
        base = build_face_map(four_nodes, small_grid, 1.5, sensing_range=45.0)
        tiled = build_face_map(
            four_nodes, small_grid, 1.5, sensing_range=45.0, workers=2, tile_cells=41
        )
        _assert_identical(base, tiled)

    def test_split_components_respected(self, four_nodes, small_grid):
        base = build_face_map(four_nodes, small_grid, 1.5, split_components=True)
        tiled = build_face_map(four_nodes, small_grid, 1.5, split_components=True, workers=2)
        _assert_identical(base, tiled)


class TestTiledCertain:
    @pytest.mark.parametrize("kwargs", [{"tile_cells": 11}, {"workers": 2}])
    def test_bit_identical_to_serial(self, four_nodes, small_grid, certain_map, kwargs):
        tiled = build_certain_face_map(four_nodes, small_grid, **kwargs)
        _assert_identical(certain_map, tiled)


class TestClassifyCellsTiled:
    def test_parallel_matches_serial(self, four_nodes, small_grid):
        serial = classify_cells_tiled(
            small_grid, four_nodes, c=1.5, kind="uncertain",
            sensing_range=None, chunk_pairs=None, workers=1, tile_cells=None,
        )
        par = classify_cells_tiled(
            small_grid, four_nodes, c=1.5, kind="uncertain",
            sensing_range=None, chunk_pairs=None, workers=3, tile_cells=97,
        )
        assert np.array_equal(serial, par)


class TestDefaultTileCells:
    def test_covers_all_cells(self):
        assert default_tile_cells(100, 6, 1) >= 1
        assert default_tile_cells(1, 6, 8) == 1

    def test_scales_down_with_workers(self):
        few = default_tile_cells(10_000, 190, 1)
        many = default_tile_cells(10_000, 190, 8)
        assert many <= few


class TestChunkedMatching:
    """Satellite: distances_to_many / match_many block over the trace axis.

    The block size is ``_GEMM_TEMP_BYTES // (4 * F)`` rows; the tests set
    the byte budget so the blocks hold exactly ``chunk_rows`` rows.
    """

    def _vectors(self, face_map, rng, n):
        idx = rng.integers(0, face_map.n_faces, size=n)
        return face_map.signatures[idx].astype(np.float32)

    def _set_block_rows(self, monkeypatch, face_map, chunk_rows):
        monkeypatch.setattr(faces, "_GEMM_TEMP_BYTES", 4 * face_map.n_faces * chunk_rows)
        assert face_map._block_rows() == chunk_rows

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 10_000])
    def test_distances_to_many_invariant(self, face_map, rng, chunk_rows, monkeypatch):
        V = self._vectors(face_map, rng, 23)
        base = face_map.distances_to_many(V)
        self._set_block_rows(monkeypatch, face_map, chunk_rows)
        chunked = face_map.distances_to_many(V)
        assert np.array_equal(base, chunked, equal_nan=True)

    @pytest.mark.parametrize("chunk_rows", [1, 5, 10_000])
    def test_match_many_invariant(self, face_map, rng, chunk_rows, monkeypatch):
        V = self._vectors(face_map, rng, 23)
        base_ties, base_best = face_map.match_many(V)
        self._set_block_rows(monkeypatch, face_map, chunk_rows)
        ties, best = face_map.match_many(V)
        assert np.array_equal(base_best, best)
        assert len(base_ties) == len(ties)
        for a, b in zip(base_ties, ties):
            assert np.array_equal(a, b)

    def test_default_chunk_is_bounded(self, face_map):
        # the default must keep the GEMM temp under the documented cap
        chunk = face_map._block_rows()
        assert chunk * face_map.n_faces * 4 <= 256 * 1024 * 1024
        assert chunk >= 1
