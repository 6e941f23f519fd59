"""Content-addressed face-map cache (in-process LRU + optional disk store).

Building a face map is the dominant cost of every sweep: ``M`` grid cells
classified against ``C(n, 2)`` pair boundaries, repeated for every
replication of every parameter point.  Many sweeps revisit the *same*
world — ``fig12b`` sweeps k over common-random-number deployments, the
ablations rebuild one deployment per arm, and ``parallel_sweep`` workers
each rebuild maps the sibling tasks already built.  The division depends
only on ``(nodes, grid, c, sensing_range, split_components)``, none of
which involve randomness once the deployment is drawn, so a cached copy
is *bit-identical* to a rebuild and reuse cannot perturb any result.

Three tiers, looked up in this order:

* an in-process LRU keyed by a SHA-256 over the exact node bytes and the
  build parameters (content-addressed: two deployments match only if
  every coordinate matches bit for bit).  Under ``fork`` start methods
  the parent's warm entries are inherited copy-on-write by pool workers.
* maps a sweep parent published into shared memory
  (:mod:`repro.geometry.shm`); pool workers attach to them instead of
  rebuilding.
* an optional on-disk ``.npz`` store (``REPRO_FACE_CACHE_DIR`` or
  :func:`configure_face_map_cache`) so repeated processes — sweep
  workers, CI shards, notebook restarts — share the build.  Writes are
  atomic (temp file + rename), so concurrent workers race benignly.
  A file in any other layout than the current one is a miss: the map is
  rebuilt and the file overwritten.

Every lookup returns a fresh :class:`~repro.geometry.faces.FaceMap`
wrapper sharing the (never-mutated) geometry arrays but with its own
``soft_signatures`` slot, so per-scenario soft attachments cannot leak
between cache users.  Disable entirely with
``configure_face_map_cache(enabled=False)``.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.geometry.faces import FaceMap, build_certain_face_map, build_face_map
from repro.geometry.grid import Grid
from repro.obs import metrics as obs

__all__ = [
    "FaceMapCache",
    "face_map_cache_key",
    "get_face_map",
    "default_face_map_cache",
    "configure_face_map_cache",
    "face_map_cache_enabled",
]

_KEY_VERSION = 1  # bump when FaceMap construction semantics change


def face_map_cache_key(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    *,
    sensing_range: "float | None" = None,
    split_components: bool = False,
    kind: str = "uncertain",
) -> str:
    """Content hash of everything the face-map build depends on.

    The node array is hashed by its exact float64 bytes, the scalars by
    their exact IEEE bit patterns — two builds share a key iff they would
    produce identical maps.
    """
    if kind not in ("uncertain", "certain"):
        raise ValueError(f"unknown face-map kind {kind!r}")
    nodes = np.ascontiguousarray(np.atleast_2d(np.asarray(nodes, dtype=np.float64)))
    h = hashlib.sha256()
    h.update(struct.pack("<iii", _KEY_VERSION, nodes.shape[0], nodes.shape[1]))
    h.update(nodes.tobytes())
    h.update(
        struct.pack(
            "<dddd d i",
            float(grid.width),
            float(grid.height),
            float(grid.cell_size),
            float(c),
            float("nan") if sensing_range is None else float(sensing_range),
            int(bool(split_components)),
        )
    )
    h.update(kind.encode())
    return h.hexdigest()


_ARRAY_FIELDS = (
    "nodes",
    "signatures",
    "centroids",
    "cell_face",
    "cell_counts",
    "adj_indptr",
    "adj_indices",
)

#: On-disk ``.npz`` layout marker: the :data:`_ARRAY_FIELDS` arrays as
#: built, signatures as the dense int8 matrix.  Earlier layouts (no
#: marker, or the 2-bit layout marked 2) do not load.
_DISK_FORMAT = 3


class FaceMapCache:
    """LRU of built face maps, optionally backed by an ``.npz`` directory.

    Parameters
    ----------
    maxsize : in-process entries kept (LRU eviction); 0 disables the
        memory tier (disk tier, if any, still works).
    disk_dir : directory for the on-disk ``.npz`` store; created on first
        write.  ``None`` disables the disk tier.
    """

    def __init__(self, maxsize: int = 64, disk_dir: "str | os.PathLike | None" = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: "OrderedDict[str, FaceMap]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.shm_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "shm_hits": self.shm_hits,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._entries.clear()

    # -- views -------------------------------------------------------------

    @staticmethod
    def _view(fm: FaceMap) -> FaceMap:
        """Fresh FaceMap sharing arrays but owning its soft-signature slot."""
        fm._sig_f32()  # materialize the shared float32 matrix once
        return fm.view()

    # -- disk tier ---------------------------------------------------------

    def _disk_path(self, key: str) -> "Path | None":
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"facemap-{key}.npz"

    def _disk_store(self, key: str, fm: FaceMap) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {name: getattr(fm, name) for name in _ARRAY_FIELDS}
        arrays["format"] = np.array([_DISK_FORMAT], dtype=np.int64)
        arrays["grid_spec"] = np.array([fm.grid.width, fm.grid.height, fm.grid.cell_size])
        arrays["c"] = np.array([fm.c])
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp, path)  # atomic: concurrent writers race benignly
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _disk_load(self, key: str) -> "FaceMap | None":
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as data:
                if "format" not in data.files or int(data["format"][0]) != _DISK_FORMAT:
                    return None  # another layout: a miss, rebuilt and overwritten
                grid_spec = data["grid_spec"]
                return FaceMap(
                    grid=Grid(float(grid_spec[0]), float(grid_spec[1]), float(grid_spec[2])),
                    c=float(data["c"][0]),
                    **{name: data[name] for name in _ARRAY_FIELDS},
                )
        except (OSError, KeyError, ValueError):
            return None  # truncated/foreign file: treat as a miss and rebuild

    # -- main entry --------------------------------------------------------

    def get_or_build(
        self,
        nodes: np.ndarray,
        grid: Grid,
        c: float,
        *,
        sensing_range: "float | None" = None,
        split_components: bool = False,
        kind: str = "uncertain",
    ) -> FaceMap:
        """Return the face map for these inputs, building at most once.

        ``kind="uncertain"`` routes to :func:`build_face_map`,
        ``kind="certain"`` to :func:`build_certain_face_map` (which takes
        no ``c`` / ``sensing_range``; pass ``c=1.0`` for a stable key).
        """
        key = face_map_cache_key(
            nodes, grid, c, sensing_range=sensing_range, split_components=split_components, kind=kind
        )
        record = obs.enabled()
        fm = self._entries.get(key)
        if fm is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if record:
                obs.counter("geometry.cache.hits").inc()
            return self._view(fm)
        # zero-copy tier: a map published into shared memory by the sweep
        # parent (repro.geometry.shm); views attach instead of rebuilding
        from repro.geometry.shm import shared_face_map

        shared = shared_face_map(key)
        if shared is not None:
            self.shm_hits += 1
            if record:
                obs.counter("geometry.cache.shm_hits").inc()
            return shared
        fm = self._disk_load(key)
        if fm is not None:
            self.disk_hits += 1
            if record:
                obs.counter("geometry.cache.disk_hits").inc()
        else:
            self.misses += 1
            if record:
                obs.counter("geometry.cache.misses").inc()
            if kind == "uncertain":
                fm = build_face_map(
                    nodes,
                    grid,
                    c,
                    sensing_range=sensing_range,
                    split_components=split_components,
                )
            else:
                fm = build_certain_face_map(nodes, grid, split_components=split_components)
            self._disk_store(key, fm)
        if self.maxsize > 0:
            self._entries[key] = fm
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                if record:
                    obs.counter("geometry.cache.evictions").inc()
        return self._view(fm)


_default_cache: "FaceMapCache | None" = None
_enabled = True


def face_map_cache_enabled() -> bool:
    """Caching is on unless :func:`configure_face_map_cache` turned it off."""
    return _enabled


def default_face_map_cache() -> FaceMapCache:
    """The process-global cache (its disk tier from ``REPRO_FACE_CACHE_DIR``)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = FaceMapCache(disk_dir=os.environ.get("REPRO_FACE_CACHE_DIR") or None)
    return _default_cache


_KEEP = object()  # sentinel: "leave this setting as it is"


def configure_face_map_cache(
    *,
    maxsize: "int | None" = None,
    disk_dir: "str | os.PathLike | None" = _KEEP,
    enabled: "bool | None" = None,
) -> FaceMapCache:
    """Replace the process-global cache; returns the new instance.

    ``enabled=False`` makes :func:`get_face_map` bypass the cache (builds
    are then exactly the uncached code path); ``enabled=None`` restores
    the default (on).  ``disk_dir=None`` removes the disk tier; omitting
    it keeps the current directory.
    """
    global _default_cache, _enabled
    _enabled = enabled is None or bool(enabled)
    current = default_face_map_cache()
    _default_cache = FaceMapCache(
        maxsize=current.maxsize if maxsize is None else maxsize,
        disk_dir=current.disk_dir if disk_dir is _KEEP else disk_dir,
    )
    return _default_cache


def get_face_map(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    *,
    sensing_range: "float | None" = None,
    split_components: bool = False,
    kind: str = "uncertain",
) -> FaceMap:
    """Cache-aware face-map constructor (the :class:`Scenario` entry point).

    Bit-identical to calling :func:`build_face_map` /
    :func:`build_certain_face_map` directly; with the cache disabled it
    *is* that call.
    """
    if not face_map_cache_enabled():
        if kind == "uncertain":
            return build_face_map(
                nodes,
                grid,
                c,
                sensing_range=sensing_range,
                split_components=split_components,
            )
        if kind == "certain":
            return build_certain_face_map(nodes, grid, split_components=split_components)
        raise ValueError(f"unknown face-map kind {kind!r}")
    return default_face_map_cache().get_or_build(
        nodes,
        grid,
        c,
        sensing_range=sensing_range,
        split_components=split_components,
        kind=kind,
    )
