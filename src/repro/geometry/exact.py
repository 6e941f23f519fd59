"""Exact-geometry utilities complementing the raster approximation.

The paper punts on the exact arrangement ("very complex geometry
problem"); the raster division is the production path.  These helpers
bound and refine what the raster gets wrong:

* circle-circle intersections — the vertices of the exact arrangement;
* per-face refinement — re-rasterize one face's bounding box at a finer
  resolution to tighten its centroid and area;
* boundary-cell detection — which cells the raster may have misassigned
  (their corners disagree with their centre), giving a certified error
  bound on the division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.faces import FaceMap
from repro.geometry.primitives import Circle

__all__ = [
    "circle_intersections",
    "RefinedFace",
    "refine_face",
    "boundary_cell_fraction",
]


def circle_intersections(a: Circle, b: Circle) -> np.ndarray:
    """Intersection points of two circles, shape (0|1|2, 2).

    Tangency returns one point; separate/contained circles return none.
    """
    d = float(np.hypot(b.cx - a.cx, b.cy - a.cy))
    if d < 1e-12:
        return np.empty((0, 2))  # concentric: none or infinitely many
    if d > a.r + b.r + 1e-12 or d < abs(a.r - b.r) - 1e-12:
        return np.empty((0, 2))
    # distance from a's centre to the radical line
    x = (d**2 + a.r**2 - b.r**2) / (2 * d)
    h2 = a.r**2 - x**2
    ux, uy = (b.cx - a.cx) / d, (b.cy - a.cy) / d
    px, py = a.cx + x * ux, a.cy + x * uy
    if h2 <= 1e-12:
        return np.array([[px, py]])
    h = float(np.sqrt(h2))
    return np.array(
        [[px - h * uy, py + h * ux], [px + h * uy, py - h * ux]]
    )


@dataclass(frozen=True)
class RefinedFace:
    """Tightened geometry of one face."""

    face_id: int
    centroid: np.ndarray
    area_m2: float
    n_fine_cells: int
    centroid_shift_m: float  # how far refinement moved the raster centroid


def refine_face(face_map: FaceMap, face_id: int, *, factor: int = 4) -> RefinedFace:
    """Re-rasterize one face's bounding box ``factor`` times finer.

    Uses the exact (non-raster) classification at the fine centres, so the
    returned centroid/area converge to the true face geometry as *factor*
    grows.
    """
    if not (0 <= face_id < face_map.n_faces):
        raise IndexError(f"face id {face_id} out of range")
    if factor < 2:
        raise ValueError(f"factor must be >= 2, got {factor}")
    grid = face_map.grid
    cells = np.flatnonzero(face_map.cell_face == face_id)
    centers = grid.cell_centers[cells]
    half = grid.cell_size / 2.0
    lo = centers.min(axis=0) - half
    hi = centers.max(axis=0) + half
    fine = grid.cell_size / factor
    xs = np.arange(lo[0] + fine / 2, hi[0], fine)
    ys = np.arange(lo[1] + fine / 2, hi[1], fine)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    sig = face_map.signatures[face_id]
    # sensing-range semantics were baked into the signatures at build time;
    # refinement reuses the plain band classification, which matches except
    # for the range-gated overrides — restrict to cells already in the face
    fine_sigs = classify_points_pairwise(pts, face_map.nodes, face_map.c)
    member = np.all(fine_sigs == sig[None, :], axis=1)
    # also require the fine point to fall in a cell of this face, which
    # keeps range-gated faces correct without re-deriving the gating
    in_cells = face_map.cell_face[grid.cell_of(pts)] == face_id
    member &= in_cells
    if not member.any():
        # degenerate (face thinner than the fine grid): fall back to raster
        raster_centroid = face_map.centroids[face_id]
        return RefinedFace(
            face_id=face_id,
            centroid=raster_centroid.copy(),
            area_m2=float(face_map.cell_counts[face_id] * grid.cell_size**2),
            n_fine_cells=0,
            centroid_shift_m=0.0,
        )
    chosen = pts[member]
    centroid = chosen.mean(axis=0)
    area = float(member.sum()) * fine**2
    shift = float(np.hypot(*(centroid - face_map.centroids[face_id])))
    return RefinedFace(
        face_id=face_id,
        centroid=centroid,
        area_m2=area,
        n_fine_cells=int(member.sum()),
        centroid_shift_m=shift,
    )


def boundary_cell_fraction(face_map: FaceMap) -> float:
    """Fraction of cells whose corners straddle a face boundary.

    A cell whose four corners all classify like its centre is certainly
    interior; the rest may be misassigned by up to one cell — this is the
    certified error mass of the raster division (drives cell-size choice).
    """
    grid = face_map.grid
    centers = grid.cell_centers
    half = grid.cell_size / 2.0
    agree = np.ones(grid.n_cells, dtype=bool)
    center_sig = face_map.signatures[face_map.cell_face]
    for dx, dy in ((-half, -half), (-half, half), (half, -half), (half, half)):
        corners = centers + np.array([dx, dy])
        corner_sig = classify_points_pairwise(corners, face_map.nodes, face_map.c)
        agree &= np.all(corner_sig == center_sig, axis=1)
    return float((~agree).mean())
