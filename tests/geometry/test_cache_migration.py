"""Tests for the on-disk face-map cache format: one dense layout.

The cache writes one layout — every map array as built, signatures as the
dense int8 matrix — under one ``format`` marker.  A file in any other
layout is a miss: the map is rebuilt bit-identically and the file is
overwritten in the current layout.  ``TestV1Migration`` covers the dense
files written before the marker existed; ``TestDiskFormat`` covers the
2-bit files marked ``format=2``, any future format, and fresh writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import cache as geometry_cache
from repro.geometry.cache import FaceMapCache, face_map_cache_key
from repro.obs import metrics as obs

V1_FIELDS = ("nodes", "centroids", "cell_face", "cell_counts", "adj_indptr", "adj_indices")
CURRENT_FIELDS = ("signatures", *V1_FIELDS)


def _write_v1_entry(path, fm):
    """Write an entry as the first cache did: dense, no format key."""
    arrays = {name: getattr(fm, name) for name in V1_FIELDS}
    arrays["signatures"] = fm.signatures
    arrays["grid_spec"] = np.array([fm.grid.width, fm.grid.height, fm.grid.cell_size])
    arrays["c"] = np.array([fm.c])
    np.savez_compressed(path, **arrays)


def _write_two_bit_entry(path, fm):
    """Write an entry in the retired 2-bit layout: four codes per byte
    (0 -> 00, +1 -> 01, -1 -> 11), MSB first, marked ``format=2``."""
    codes = np.where(fm.signatures < 0, 3, fm.signatures).astype(np.uint8)
    codes = np.pad(codes, ((0, 0), (0, -fm.n_pairs % 4))).reshape(fm.n_faces, -1, 4)
    arrays = {name: getattr(fm, name) for name in V1_FIELDS}
    arrays["signatures_packed"] = (
        (codes[..., 0] << 6) | (codes[..., 1] << 4) | (codes[..., 2] << 2) | codes[..., 3]
    )
    arrays["n_pairs"] = np.array([fm.n_pairs], dtype=np.int64)
    arrays["format"] = np.array([2], dtype=np.int64)
    arrays["grid_spec"] = np.array([fm.grid.width, fm.grid.height, fm.grid.cell_size])
    arrays["c"] = np.array([fm.c])
    np.savez_compressed(path, **arrays)


def _write_future_entry(path, fm):
    _write_v1_entry(path, fm)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["format"] = np.array([99], dtype=np.int64)
    np.savez_compressed(path, **arrays)


@pytest.fixture
def disk_cache(tmp_path):
    return FaceMapCache(maxsize=4, disk_dir=tmp_path)


@pytest.fixture(autouse=True)
def _cache_counters():
    """Count this test's lookups on the ``geometry.cache.*`` obs counters."""
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.set_enabled(None)
    obs.reset()


def _count(name: str) -> int:
    return obs.counter("geometry.cache." + name).value


def _assert_identical(a, b):
    assert np.array_equal(a.signatures, b.signatures)
    assert a.signatures.dtype == b.signatures.dtype
    for f in V1_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


def _assert_current_layout(path, fm):
    with np.load(path) as data:
        assert set(data.files) == {*CURRENT_FIELDS, "format", "grid_spec", "c"}
        assert int(data["format"][0]) == geometry_cache._DISK_FORMAT
        assert data["signatures"].dtype == np.int8
        assert np.array_equal(data["signatures"], fm.signatures)


class TestV1Migration:
    """Dense files with no ``format`` marker, as the first cache wrote them."""

    def test_v1_entry_loads_bit_identically(
        self, four_nodes, small_grid, face_map, disk_cache, tmp_path
    ):
        key = face_map_cache_key(four_nodes, small_grid, 1.5)
        _write_v1_entry(tmp_path / f"facemap-{key}.npz", face_map)

        loaded = disk_cache.get_or_build(four_nodes, small_grid, 1.5)
        _assert_identical(face_map, loaded)
        assert _count("misses") == 1
        assert _count("disk_hits") == 0

    def test_v1_entry_is_rewritten_as_v2(
        self, four_nodes, small_grid, face_map, disk_cache, tmp_path
    ):
        """The unmarked file is overwritten in the current layout on first
        touch (the name keeps the layout it was once rewritten to)."""
        key = face_map_cache_key(four_nodes, small_grid, 1.5)
        path = tmp_path / f"facemap-{key}.npz"
        _write_v1_entry(path, face_map)

        disk_cache.get_or_build(four_nodes, small_grid, 1.5)
        _assert_current_layout(path, face_map)

        # the rewritten file round-trips bit-identically through a cold cache
        cold = FaceMapCache(maxsize=4, disk_dir=tmp_path)
        _assert_identical(face_map, cold.get_or_build(four_nodes, small_grid, 1.5))
        assert _count("disk_hits") == 1
        assert _count("misses") == 1  # the first cache's, not the cold one's


class TestDiskFormat:
    @pytest.mark.parametrize(
        "write",
        [_write_two_bit_entry, _write_future_entry],
        ids=["two-bit", "future-format"],
    )
    def test_other_layout_is_rebuilt_and_overwritten(
        self, four_nodes, small_grid, face_map, disk_cache, tmp_path, write
    ):
        key = face_map_cache_key(four_nodes, small_grid, 1.5)
        path = tmp_path / f"facemap-{key}.npz"
        write(path, face_map)

        rebuilt = disk_cache.get_or_build(four_nodes, small_grid, 1.5)
        assert _count("misses") == 1
        assert _count("disk_hits") == 0
        _assert_identical(face_map, rebuilt)
        _assert_current_layout(path, face_map)

        # the overwritten file is a disk hit for a cold cache
        cold = FaceMapCache(maxsize=4, disk_dir=tmp_path)
        _assert_identical(face_map, cold.get_or_build(four_nodes, small_grid, 1.5))
        assert _count("disk_hits") == 1
        assert _count("misses") == 1  # the first cache's, not the cold one's

    def test_fresh_writes_use_current_layout(self, four_nodes, small_grid, face_map, disk_cache, tmp_path):
        disk_cache.get_or_build(four_nodes, small_grid, 1.5)
        key = face_map_cache_key(four_nodes, small_grid, 1.5)
        _assert_current_layout(tmp_path / f"facemap-{key}.npz", face_map)
