"""Zero-copy shared-memory transport for face maps.

Parallel sweeps used to pickle every :class:`~repro.geometry.faces.FaceMap`
into each pool worker — a full copy of the signature matrix, adjacency CSR
and cell→face array per task.  This module instead publishes each map once
into a ``multiprocessing.shared_memory`` segment; workers *attach* and wrap
the buffers in read-only numpy views, so the only per-worker cost is a page
table mapping.  Sweeps are its only user (``parallel_sweep(share_maps=True)``
and the fault-lab campaign); face-map construction itself runs in one
process.

Lifecycle guarantees
--------------------
* every segment this process creates is recorded in a module registry and
  unlinked by an ``atexit`` hook — a KeyboardInterrupt or crash in the
  parent cannot leak ``/dev/shm`` entries;
* :class:`SharedFaceMapSet` is a context manager whose ``__exit__`` (and
  the ``finally`` in ``sim.parallel``) unlinks eagerly on the normal path;
* workers attach *untracked* so Python's ``resource_tracker`` neither
  double-unlinks nor warns when a worker exits (the creator owns cleanup).

Every array travels in its in-memory form, the signatures as the dense
``(F, P)`` int8 matrix; workers decode nothing on attach.
"""

from __future__ import annotations

import atexit
import os
import uuid
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.geometry.faces import FaceMap
from repro.geometry.grid import Grid

__all__ = [
    "SharedFaceMap",
    "SharedFaceMapSet",
    "create_segment",
    "attach_segment",
    "release_segment",
    "install_shared_face_maps",
    "shared_face_map",
    "clear_shared_face_maps",
]

SEGMENT_PREFIX = "reprofm"

#: Segments created (and therefore owned) by this process, by name.
_owned_segments: dict[str, shared_memory.SharedMemory] = {}
_atexit_installed = False

_ALIGN = 64


def _cleanup_owned_segments() -> None:
    for name in list(_owned_segments):
        seg = _owned_segments.pop(name)
        try:
            seg.close()
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a leak-guarded shared-memory segment owned by this process."""
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(_cleanup_owned_segments)
        _atexit_installed = True
    name = f"{SEGMENT_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:10]}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, int(nbytes)))
    _owned_segments[seg.name] = seg
    return seg


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    The creator owns unlinking; an attaching worker must not let Python's
    per-process ``resource_tracker`` claim the segment, or worker exit
    triggers spurious leak warnings and double-unlinks.  Python 3.13 has
    ``track=False`` for this; on 3.11/3.12 we unregister by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: suppress registration during attach
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def release_segment(seg: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment created by :func:`create_segment`."""
    _owned_segments.pop(seg.name, None)
    try:
        seg.close()
    except OSError:  # pragma: no cover - defensive
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


def owned_segment_names() -> list[str]:
    """Names of live segments owned by this process (for leak tests)."""
    return sorted(_owned_segments)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


#: Arrays shipped verbatim into the segment.
_FM_ARRAYS = (
    "nodes",
    "signatures",
    "centroids",
    "cell_face",
    "cell_counts",
    "adj_indptr",
    "adj_indices",
)


class SharedFaceMap:
    """One face map published into (or attached from) a shared segment.

    The creator lays every array into a single segment with a manifest —
    a plain picklable dict of ``{name, offsets, dtypes, shapes, grid, c,
    n_pairs, key}`` — that is the only thing sent to workers.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, manifest: dict, *, owner: bool
    ) -> None:
        self.segment = segment
        self.manifest = manifest
        self.owner = owner

    @classmethod
    def create(cls, face_map: FaceMap, key: str) -> "SharedFaceMap":
        arrays: dict[str, np.ndarray] = {
            name: np.ascontiguousarray(getattr(face_map, name)) for name in _FM_ARRAYS
        }
        layout: dict[str, dict] = {}
        offset = 0
        for name, arr in arrays.items():
            offset = _align(offset)
            layout[name] = {
                "offset": offset,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            }
            offset += arr.nbytes
        segment = create_segment(offset)
        for name, arr in arrays.items():
            spec = layout[name]
            dst = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=segment.buf, offset=spec["offset"]
            )
            dst[...] = arr
        manifest = {
            "name": segment.name,
            "key": key,
            "grid": [face_map.grid.width, face_map.grid.height, face_map.grid.cell_size],
            "c": float(face_map.c),
            "n_pairs": int(face_map.n_pairs),
            "layout": layout,
        }
        return cls(segment, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: dict) -> "SharedFaceMap":
        return cls(attach_segment(manifest["name"]), manifest, owner=False)

    def _array(self, name: str) -> np.ndarray:
        spec = self.manifest["layout"][name]
        return np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=self.segment.buf,
            offset=spec["offset"],
        )

    def face_map(self) -> FaceMap:
        """A :class:`FaceMap` whose arrays are read-only views into the segment."""
        manifest = self.manifest
        arrays = {name: self._array(name) for name in _FM_ARRAYS}
        sig_shape = arrays["signatures"].shape
        if len(sig_shape) != 2 or sig_shape[1] != int(manifest["n_pairs"]):
            raise ValueError("shared segment layout inconsistent with n_pairs")
        width, height, cell_size = manifest["grid"]
        return FaceMap(grid=Grid(width, height, cell_size), c=float(manifest["c"]), **arrays)

    def close(self) -> None:
        """Detach; the creator also unlinks (removing the ``/dev/shm`` entry)."""
        if self.owner:
            release_segment(self.segment)
        else:
            try:
                self.segment.close()
            except OSError:  # pragma: no cover - defensive
                pass


class SharedFaceMapSet:
    """Creator-side bundle of published maps with guaranteed cleanup.

    >>> with SharedFaceMapSet() as shared:
    ...     shared.publish(key, face_map)
    ...     run_pool(initargs=(shared.manifests(),))
    ... # segments unlinked here, and again (idempotently) at exit
    """

    def __init__(self) -> None:
        self._maps: dict[str, SharedFaceMap] = {}

    def publish(self, key: str, face_map: FaceMap) -> None:
        if key not in self._maps:
            self._maps[key] = SharedFaceMap.create(face_map, key)

    def manifests(self) -> list[dict]:
        return [m.manifest for m in self._maps.values()]

    def __len__(self) -> int:
        return len(self._maps)

    def __contains__(self, key: str) -> bool:
        return key in self._maps

    def close(self) -> None:
        for m in self._maps.values():
            m.close()
        self._maps.clear()

    def __enter__(self) -> "SharedFaceMapSet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- worker-side registry -------------------------------------------------
#
# Pool workers receive the manifest list once via the pool initializer and
# resolve cache keys against it lazily: the first lookup attaches the
# segment and wraps it in one FaceMap, which every lookup returns.

_installed_manifests: dict[str, dict] = {}
_attached: dict[str, tuple[SharedFaceMap, FaceMap]] = {}


def install_shared_face_maps(manifests: list[dict]) -> None:
    """Register shared-map manifests for :func:`shared_face_map` lookups."""
    for manifest in manifests:
        _installed_manifests[manifest["key"]] = manifest


def shared_face_map(key: str) -> FaceMap | None:
    """The map attached from the segment published under *key*, or None."""
    manifest = _installed_manifests.get(key)
    if manifest is None:
        return None
    entry = _attached.get(key)
    if entry is None:
        try:
            handle = SharedFaceMap.attach(manifest)
            entry = (handle, handle.face_map())
        except (FileNotFoundError, ValueError, OSError):
            # creator already unlinked (or manifest is stale): fall back to
            # the normal cache/build path rather than failing the task
            _installed_manifests.pop(key, None)
            return None
        _attached[key] = entry
    return entry[1]


def clear_shared_face_maps() -> None:
    """Detach every attached map and forget installed manifests."""
    for handle, _ in _attached.values():
        handle.close()
    _attached.clear()
    _installed_manifests.clear()
