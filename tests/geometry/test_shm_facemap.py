"""Tests for repro.geometry.shm — zero-copy shared-memory face maps.

Two contracts: an attached map is *bit-identical* to the published one
(read-only views over the same bytes), and segments can never outlive
their creator — normal exit, crash, and KeyboardInterrupt all leave
``/dev/shm`` clean.  Leak checks scan ``/dev/shm`` for the module's
``reprofm`` prefix directly, not just the bookkeeping dict.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.geometry.cache import face_map_cache_key
from repro.geometry.shm import (
    SEGMENT_PREFIX,
    SharedFaceMap,
    SharedFaceMapSet,
    clear_shared_face_maps,
    install_shared_face_maps,
    owned_segment_names,
    shared_face_map,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)


def _shm_entries() -> set[str]:
    return {f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX)}


@pytest.fixture(autouse=True)
def _clean_worker_registry():
    clear_shared_face_maps()
    before = _shm_entries()
    yield
    clear_shared_face_maps()
    assert _shm_entries() <= before, "test leaked /dev/shm segments"


def _key(four_nodes, small_grid):
    return face_map_cache_key(four_nodes, small_grid, 1.5)


class TestSharedFaceMap:
    def test_publish_attach_bit_identical(self, four_nodes, small_grid, face_map):
        handle = SharedFaceMap.create(face_map, _key(four_nodes, small_grid))
        try:
            attached = SharedFaceMap.attach(handle.manifest)
            try:
                fm = attached.face_map()
                assert np.array_equal(fm.signatures, face_map.signatures)
                assert np.array_equal(fm.nodes, face_map.nodes)
                assert np.array_equal(fm.centroids, face_map.centroids)
                assert np.array_equal(fm.cell_face, face_map.cell_face)
                assert np.array_equal(fm.cell_counts, face_map.cell_counts)
                assert np.array_equal(fm.adj_indptr, face_map.adj_indptr)
                assert np.array_equal(fm.adj_indices, face_map.adj_indices)
                assert fm.c == face_map.c
            finally:
                attached.close()
        finally:
            handle.close()

    def test_views_are_read_only(self, four_nodes, small_grid, face_map):
        handle = SharedFaceMap.create(face_map, _key(four_nodes, small_grid))
        try:
            fm = handle.face_map()
            with pytest.raises(ValueError):
                fm.cell_face[0] = 0
            with pytest.raises(ValueError):
                fm.signatures[0, 0] = 0
        finally:
            handle.close()

    def test_layout_inconsistent_with_n_pairs_is_rejected(self, four_nodes, small_grid, face_map):
        handle = SharedFaceMap.create(face_map, _key(four_nodes, small_grid))
        try:
            manifest = dict(handle.manifest, n_pairs=face_map.n_pairs + 1)
            attached = SharedFaceMap.attach(manifest)
            try:
                with pytest.raises(ValueError, match="n_pairs"):
                    attached.face_map()
            finally:
                attached.close()
        finally:
            handle.close()

    def test_close_unlinks_dev_shm_entry(self, four_nodes, small_grid, face_map):
        handle = SharedFaceMap.create(face_map, _key(four_nodes, small_grid))
        name = handle.manifest["name"]
        assert name in _shm_entries()
        assert name in owned_segment_names()
        handle.close()
        assert name not in _shm_entries()
        assert name not in owned_segment_names()

    def test_matching_identical_through_shm(self, four_nodes, small_grid, face_map, rng):
        handle = SharedFaceMap.create(face_map, _key(four_nodes, small_grid))
        try:
            fm = handle.face_map()
            V = face_map.signatures[
                rng.integers(0, face_map.n_faces, size=9)
            ].astype(np.float32)
            assert np.array_equal(
                face_map.distances_to_many(V), fm.distances_to_many(V)
            )
        finally:
            handle.close()


class TestSharedFaceMapSet:
    def test_context_manager_cleans_up(self, four_nodes, small_grid, face_map):
        with SharedFaceMapSet() as shared:
            shared.publish("k1", face_map)
            shared.publish("k1", face_map)  # idempotent
            assert len(shared) == 1
            assert "k1" in shared
            names = {m["name"] for m in shared.manifests()}
            assert names <= _shm_entries()
        assert not names & _shm_entries()
        assert owned_segment_names() == []

    def test_cleanup_on_exception(self, face_map):
        with pytest.raises(RuntimeError):
            with SharedFaceMapSet() as shared:
                shared.publish("k1", face_map)
                names = {m["name"] for m in shared.manifests()}
                raise RuntimeError("boom")
        assert not names & _shm_entries()


class TestWorkerRegistry:
    def test_lookups_share_one_attached_map(self, face_map):
        """Every lookup returns the one map attached from the segment, and
        a soft tracker on it leaves the next holder's matching unchanged."""
        from repro.core.extended import expected_extended_signatures
        from repro.core.tracker import FTTTracker

        with SharedFaceMapSet() as shared:
            shared.publish("k1", face_map)
            install_shared_face_maps(shared.manifests())
            a = shared_face_map("k1")
            assert a is not None and a is shared_face_map("k1")
            soft = expected_extended_signatures(a, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
            v = face_map.signatures[3].astype(float)
            FTTTracker(a, mode="extended", matcher="exhaustive", soft_signatures=soft).localize(
                np.array([[-50.0, -60.0, -55.0, -70.0]] * 3)
            )
            ties, best = shared_face_map("k1").match(v)
            want_ties, want_best = face_map.match(v)
            assert ties.tolist() == want_ties.tolist()
            assert best == want_best
            clear_shared_face_maps()

    def test_unknown_key_returns_none(self):
        assert shared_face_map("nope") is None

    def test_stale_manifest_falls_back_to_none(self, face_map):
        shared = SharedFaceMapSet()
        shared.publish("k1", face_map)
        manifests = shared.manifests()
        shared.close()  # creator unlinks before the worker ever attaches
        install_shared_face_maps(manifests)
        assert shared_face_map("k1") is None  # graceful: caller rebuilds


class TestProcessLifecycle:
    """Segments die with their creator — even on crash or SIGINT."""

    _SCRIPT = textwrap.dedent(
        """
        import numpy as np
        from repro.geometry.faces import build_face_map
        from repro.geometry.grid import Grid
        from repro.geometry.shm import SharedFaceMapSet

        nodes = np.array([[30.0, 30.0], [70.0, 30.0], [30.0, 70.0], [70.0, 70.0]])
        fm = build_face_map(nodes, Grid.square(100.0, 4.0), 1.5)
        shared = SharedFaceMapSet()
        shared.publish("k", fm)
        print(shared.manifests()[0]["name"], flush=True)
        MODE
        """
    )

    def _run(self, mode: str) -> "tuple[str, int]":
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT.replace("MODE", mode)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        name = proc.stdout.strip().splitlines()[0]
        assert name.startswith(SEGMENT_PREFIX)
        return name, proc.returncode

    def test_normal_exit_unlinks_via_atexit(self):
        name, rc = self._run("")  # no explicit close: atexit must cover it
        assert rc == 0
        assert name not in _shm_entries()

    def test_unhandled_exception_unlinks(self):
        name, rc = self._run("raise RuntimeError('worker crashed')")
        assert rc != 0
        assert name not in _shm_entries()

    def test_keyboard_interrupt_unlinks(self):
        name, rc = self._run("raise KeyboardInterrupt")
        assert rc != 0
        assert name not in _shm_entries()
