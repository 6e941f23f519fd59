"""Tiled (and optionally multiprocess) grid-cell signature classification.

``build_face_map`` classifies every grid cell against all C(n, 2) pair
boundaries — an embarrassingly parallel ``cells x pairs`` volume that the
serial builder walks in one pass.  This module splits the cell axis into
tiles and classifies them either in-process (bounding peak memory to one
tile) or across worker processes that write their tiles directly into a
single preallocated ``multiprocessing.shared_memory`` buffer, so there is
no per-tile result pickling and no merge copy.

Bit-identity: classification is elementwise per cell
(:func:`~repro.geometry.primitives.pairwise_distances` is pure
broadcasting, no reductions across cells), so any tiling of the cell axis
produces byte-for-byte the same int8 signature volume as the serial
pass.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np

from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.bisector import certain_signatures
from repro.geometry.grid import Grid
from repro.geometry.shm import attach_segment, create_segment, release_segment

__all__ = ["classify_cells_tiled", "default_tile_cells"]

#: Cap on one tile's dense int8 signature block (cells x pairs bytes).
_TILE_BYTES = 16 * 1024 * 1024


def default_tile_cells(n_cells: int, n_pairs: int, workers: int) -> int:
    """Tile size balancing scheduling granularity against per-tile overhead:
    ~4 tiles per worker, but never a dense tile block over ``_TILE_BYTES``."""
    by_workers = -(-n_cells // max(1, 4 * workers))  # ceil
    by_memory = max(1, _TILE_BYTES // max(1, n_pairs))
    return max(1, min(by_workers, by_memory))


def _classify_tile(
    centers: np.ndarray,
    nodes: np.ndarray,
    c: float,
    kind: str,
    sensing_range: float | None,
    chunk_pairs: int,
) -> np.ndarray:
    if kind == "uncertain":
        return classify_points_pairwise(
            centers, nodes, c, None, sensing_range=sensing_range, chunk_pairs=chunk_pairs
        )
    if kind == "certain":
        return certain_signatures(centers, nodes, None, chunk_pairs=chunk_pairs)
    raise ValueError(f"unknown signature kind {kind!r}")


# Worker state installed once per process by the pool initializer; tasks
# then carry only a (start, stop) cell span.
_WORKER: dict = {}


def _init_worker(
    shm_name: str,
    buf_shape: tuple[int, int],
    grid: Grid,
    nodes: np.ndarray,
    c: float,
    kind: str,
    sensing_range: float | None,
    chunk_pairs: int,
) -> None:
    segment = attach_segment(shm_name)
    _WORKER.update(
        segment=segment,
        buf=np.ndarray(buf_shape, dtype=np.int8, buffer=segment.buf),
        grid=grid,
        nodes=nodes,
        c=c,
        kind=kind,
        sensing_range=sensing_range,
        chunk_pairs=chunk_pairs,
    )


def _run_tile(span: tuple[int, int]) -> int:
    start, stop = span
    st = _WORKER
    st["buf"][start:stop] = _classify_tile(
        st["grid"].cell_centers[start:stop],
        st["nodes"],
        st["c"],
        st["kind"],
        st["sensing_range"],
        st["chunk_pairs"],
    )
    return stop - start


def _pool_context() -> mp.context.BaseContext:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context("spawn")


def classify_cells_tiled(
    grid: Grid,
    nodes: np.ndarray,
    *,
    c: float,
    kind: str,
    sensing_range: float | None,
    chunk_pairs: int | None,
    workers: int,
    tile_cells: int | None,
) -> np.ndarray:
    """Classify every grid cell, tile by tile.

    Returns the ``(M, P)`` int8 signature volume, bit-identical to the
    one-pass serial classification.
    """
    if chunk_pairs is None:
        chunk_pairs = 256  # the build_face_map default
    n = len(nodes)
    n_pairs = n * (n - 1) // 2
    n_cells = grid.n_cells
    if tile_cells is None:
        tile_cells = default_tile_cells(n_cells, n_pairs, workers)
    tile_cells = int(tile_cells)
    if tile_cells < 1:
        raise ValueError(f"tile_cells must be >= 1, got {tile_cells}")
    spans = [(start, min(start + tile_cells, n_cells)) for start in range(0, n_cells, tile_cells)]
    out_shape = (n_cells, n_pairs)

    if workers <= 1 or len(spans) < 2:
        out = np.empty(out_shape, dtype=np.int8)
        for start, stop in spans:
            out[start:stop] = _classify_tile(
                grid.cell_centers[start:stop], nodes, c, kind, sensing_range, chunk_pairs
            )
        return out

    segment = create_segment(int(np.prod(out_shape, dtype=np.int64)))
    try:
        ctx = _pool_context()
        with ctx.Pool(
            processes=min(workers, len(spans)),
            initializer=_init_worker,
            initargs=(
                segment.name,
                out_shape,
                grid,
                nodes,
                c,
                kind,
                sensing_range,
                chunk_pairs,
            ),
        ) as pool:
            done = sum(pool.map(_run_tile, spans, chunksize=1))
        if done != n_cells:  # pragma: no cover - worker protocol violation
            raise RuntimeError(f"tiled classification covered {done}/{n_cells} cells")
        buf = np.ndarray(out_shape, dtype=np.int8, buffer=segment.buf)
        out = buf.copy()
        del buf
    finally:
        release_segment(segment)
    return out
