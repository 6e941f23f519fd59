"""ASCII visualization helpers.

Terminal-renderable views of the simulated world: the face map's
uncertain-area structure, coverage fields and error sparklines.  Used by
the examples; no plotting dependencies.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.faces import FaceMap

__all__ = ["render_face_map", "render_scalar_field", "sparkline"]

_SHADES = " .:-=+*#%@"


def _to_text(canvas: list[list[str]]) -> str:
    return "\n".join("".join(row) for row in canvas)


def render_face_map(face_map: FaceMap, *, width: int = 60) -> str:
    """Render the uncertain-pair density of every cell (darker = more
    pairs uncertain there) with sensor positions as ``#``."""
    grid = face_map.grid
    height = max(2, int(width * grid.height / grid.width / 2))
    zeros = (face_map.signatures == 0).sum(axis=1)[face_map.cell_face]
    field = zeros.reshape(grid.shape).astype(float)
    return render_scalar_field(
        field,
        width=width,
        height=height,
        overlay_points=face_map.nodes,
        extent=(grid.width, grid.height),
    )


def render_scalar_field(
    field: np.ndarray,
    *,
    width: int = 60,
    height: "int | None" = None,
    overlay_points: "np.ndarray | None" = None,
    extent: "tuple[float, float] | None" = None,
) -> str:
    """Shade a 2-D array (row 0 = bottom) into ASCII density characters."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError(f"field must be 2-D, got shape {field.shape}")
    if height is None:
        height = max(2, width // 2)
    ny, nx = field.shape
    ys = np.linspace(0, ny - 1, height).astype(int)
    xs = np.linspace(0, nx - 1, width).astype(int)
    sampled = field[np.ix_(ys, xs)]
    lo, hi = float(sampled.min()), float(sampled.max())
    span = hi - lo if hi > lo else 1.0
    levels = ((sampled - lo) / span * (len(_SHADES) - 1)).astype(int)
    canvas = [[_SHADES[levels[y, x]] for x in range(width)] for y in range(height)]
    if overlay_points is not None and extent is not None:
        w_m, h_m = extent
        for p in np.atleast_2d(overlay_points):
            x = min(int(p[0] / w_m * width), width - 1)
            y = min(int(p[1] / h_m * height), height - 1)
            canvas[y][x] = "#"
    canvas.reverse()  # row 0 at the bottom
    return _to_text(canvas)


def sparkline(values: np.ndarray, *, width: "int | None" = None) -> str:
    """One-line trend of a series (error over time, etc.)."""
    blocks = "▁▂▃▄▅▆▇█"
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    if width is not None and values.size > width:
        idx = np.linspace(0, values.size - 1, width).astype(int)
        values = values[idx]
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    levels = ((values - lo) / span * (len(blocks) - 1)).astype(int)
    return "".join(blocks[v] for v in levels)
