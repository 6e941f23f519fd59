"""Approximate grid division of the monitor area (paper §4.3-2).

The exact arrangement of O(n^2) circles is "a very complex geometry
problem" (the paper's words); like the paper, we rasterize the field into
square cells, classify each cell centre, and treat equal-signature groups
of cells as the faces.  Localization error introduced by the grid is
bounded by half the cell diagonal and is controlled via ``cell_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """A square raster over the rectangular field ``[0, width] x [0, height]``.

    Cell ``(ix, iy)`` has centre ``((ix + 0.5) * cell, (iy + 0.5) * cell)``;
    flattened cell ids are row-major in ``iy`` then ``ix``
    (``flat = iy * nx + ix``).
    """

    width: float
    height: float
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"field must have positive extent, got {self.width} x {self.height}")
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.cell_size > min(self.width, self.height):
            raise ValueError(
                f"cell_size {self.cell_size} exceeds the field extent "
                f"{self.width} x {self.height}"
            )

    @classmethod
    def square(cls, side: float, cell_size: float = 1.0) -> "Grid":
        return cls(side, side, cell_size)

    @property
    def nx(self) -> int:
        return int(np.ceil(self.width / self.cell_size - 1e-9))

    @property
    def ny(self) -> int:
        return int(np.ceil(self.height / self.cell_size - 1e-9))

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def shape(self) -> tuple[int, int]:
        """(ny, nx) — image-style shape for reshaping flat cell arrays."""
        return (self.ny, self.nx)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """All cell centres, flattened row-major, shape ``(n_cells, 2)``."""
        xs = (np.arange(self.nx) + 0.5) * self.cell_size
        ys = (np.arange(self.ny) + 0.5) * self.cell_size
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index of each point; points are clipped into the field."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ix = np.clip((points[:, 0] / self.cell_size).astype(np.int64), 0, self.nx - 1)
        iy = np.clip((points[:, 1] / self.cell_size).astype(np.int64), 0, self.ny - 1)
        return iy * self.nx + ix

    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """4-connected adjacent cell pairs ``(a, b)`` with ``a < b``.

        Used to build face adjacency: two faces are neighbors iff some cell
        of one is 4-adjacent to some cell of the other.
        """
        idx = np.arange(self.n_cells, dtype=np.int64).reshape(self.shape)
        horiz_a = idx[:, :-1].ravel()
        horiz_b = idx[:, 1:].ravel()
        vert_a = idx[:-1, :].ravel()
        vert_b = idx[1:, :].ravel()
        return (
            np.concatenate([horiz_a, vert_a]),
            np.concatenate([horiz_b, vert_b]),
        )
