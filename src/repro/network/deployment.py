"""Sensor deployment generators.

The paper evaluates with sensors "deployed in grid" and "randomly deployed
under uniform distribution" (Fig. 10), and the outdoor testbed places nine
motes "as a cross '+' shape" (Fig. 13).  All three are provided, plus a
jittered grid for positioning-error studies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rng import ensure_rng

__all__ = [
    "grid_deployment",
    "random_deployment",
    "perturbed_grid_deployment",
    "cross_deployment",
]


def grid_deployment(n: int, field_size: float, *, margin_frac: float = 0.1) -> np.ndarray:
    """Place *n* sensors on the most-square grid that holds them.

    The grid is inset from the field edge by ``margin_frac * field_size``
    so boundary sensors still have two-sided coverage.  If *n* is not a
    perfect rectangle the last row is centred.
    """
    if n < 1:
        raise ValueError(f"need at least one sensor, got {n}")
    if field_size <= 0:
        raise ValueError(f"field_size must be positive, got {field_size}")
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    margin = margin_frac * field_size
    span = field_size - 2 * margin
    xs = np.linspace(0.0, span, cols) + margin if cols > 1 else np.array([field_size / 2])
    ys = np.linspace(0.0, span, rows) + margin if rows > 1 else np.array([field_size / 2])
    pts = []
    for r in range(rows):
        row_count = min(cols, n - r * cols)
        if row_count == cols:
            row_x = xs
        else:  # centre a partial last row
            offset = (span - (row_count - 1) * (span / max(cols - 1, 1))) / 2 if cols > 1 else 0.0
            row_x = (np.arange(row_count) * (span / max(cols - 1, 1)) + margin + offset)
        for x in row_x[:row_count]:
            pts.append((float(x), float(ys[r])))
    return np.asarray(pts[:n], dtype=float)


def random_deployment(
    n: int,
    field_size: float,
    rng: "np.random.Generator | int | None" = None,
    *,
    min_separation: float = 0.0,
) -> np.ndarray:
    """Uniform random deployment over the square field.

    ``min_separation`` optionally rejects draws closer than that distance
    to an already-placed sensor (Poisson-disk-ish), which avoids degenerate
    co-located pairs in small random topologies.  Gives up with a
    ``RuntimeError`` after 10 000 draws.
    """
    if n < 1:
        raise ValueError(f"need at least one sensor, got {n}")
    if field_size <= 0:
        raise ValueError(f"field_size must be positive, got {field_size}")
    if min_separation < 0:
        raise ValueError(f"min_separation must be non-negative, got {min_separation}")
    rng = ensure_rng(rng)
    if min_separation == 0.0:
        return rng.uniform(0.0, field_size, size=(n, 2))
    placed: list[np.ndarray] = []
    tries = 0
    while len(placed) < n:
        tries += 1
        if tries > 10_000:
            raise RuntimeError(
                f"could not place {n} sensors with min separation {min_separation} "
                f"in a {field_size} m field after 10000 tries"
            )
        cand = rng.uniform(0.0, field_size, size=2)
        if all(np.hypot(*(cand - p)) >= min_separation for p in placed):
            placed.append(cand)
    return np.stack(placed)


def perturbed_grid_deployment(
    n: int,
    field_size: float,
    jitter_m: float,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """Grid deployment with Gaussian placement error.

    Models imprecise node positioning (one of the paper's motivating
    uncertainty sources); positions are clipped back into the field.
    """
    if jitter_m < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter_m}")
    rng = ensure_rng(rng)
    pts = grid_deployment(n, field_size)
    pts = pts + rng.normal(0.0, jitter_m, size=pts.shape)
    return np.clip(pts, 0.0, field_size)


def cross_deployment(field_size: float, arm_nodes: int = 2) -> np.ndarray:
    """The outdoor testbed's "+" deployment (Fig. 13).

    One sensor at the field centre and ``arm_nodes`` sensors along each of
    the four cardinal arms — ``4 * arm_nodes + 1`` sensors total (nine with
    the default, matching the paper's nine IRIS motes).  The arms are evenly
    spaced and end a tenth of the field from its edges.
    """
    if field_size <= 0:
        raise ValueError(f"field_size must be positive, got {field_size}")
    if arm_nodes < 1:
        raise ValueError(f"arm_nodes must be >= 1, got {arm_nodes}")
    centre = field_size / 2.0
    spacing = (field_size / 2.0 - 0.1 * field_size) / arm_nodes
    pts = [(centre, centre)]
    for step in range(1, arm_nodes + 1):
        d = step * spacing
        pts.extend(
            [
                (centre + d, centre),
                (centre - d, centre),
                (centre, centre + d),
                (centre, centre - d),
            ]
        )
    return np.asarray(pts, dtype=float)
