"""Basic geometric primitives shared across the geometry layer.

All point arrays follow the convention ``(..., 2)`` with columns ``x, y``
in metres.  Functions are vectorized over leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Circle",
    "pairwise_distances",
    "point_in_circle",
    "enumerate_pairs",
    "pair_index",
    "polyline_length",
]


@dataclass(frozen=True)
class Circle:
    """A circle in the plane (centre ``(cx, cy)``, radius ``r``)."""

    cx: float
    cy: float
    r: float

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"circle radius must be non-negative, got {self.r}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])


def point_in_circle(points: np.ndarray, circle: Circle, *, strict: bool = False) -> np.ndarray:
    """Return a boolean mask of points inside *circle*.

    ``strict=True`` excludes the boundary (up to floating-point epsilon).
    """
    points = np.asarray(points, dtype=float)
    d2 = (points[..., 0] - circle.cx) ** 2 + (points[..., 1] - circle.cy) ** 2
    r2 = circle.r**2
    return d2 < r2 if strict else d2 <= r2


def pairwise_distances(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Distance matrix between ``points (M,2)`` and ``nodes (n,2)`` -> ``(M,n)``.

    Uses direct broadcasting; for the grid sizes this library works with
    (1e4 cells x 40 nodes) that is both the fastest and the most accurate
    option.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if points.shape[-1] != 2 or nodes.shape[-1] != 2:
        raise ValueError(
            f"expected (...,2) coordinate arrays, got {points.shape} and {nodes.shape}"
        )
    diff = points[:, None, :] - nodes[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def enumerate_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical node-pair enumeration of Definition 5.

    Returns index arrays ``(i_idx, j_idx)`` with ``i < j`` ordered
    ``(0,1),(0,2),...,(0,n-1),(1,2),...`` — exactly the ascending
    enumeration the paper uses for both sampling and signature vectors.
    """
    if n < 2:
        raise ValueError(f"need at least two nodes to enumerate pairs, got n={n}")
    return np.triu_indices(n, k=1)


def pair_index(i: int, j: int, n: int) -> int:
    """Position of pair ``(i, j)`` (``i < j``) in the canonical enumeration."""
    if not (0 <= i < j < n):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
    # pairs before row i: n-1 + n-2 + ... + n-i, then offset within row i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def polyline_length(vertices: np.ndarray) -> float:
    """Total length of a piecewise-linear path given as ``(V, 2)`` vertices."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError(f"expected (V,2) vertices, got {vertices.shape}")
    if len(vertices) < 2:
        return 0.0
    seg = np.diff(vertices, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())
