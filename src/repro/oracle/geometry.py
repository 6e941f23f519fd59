"""Geometry oracle: signatures from Apollonius *circle membership*.

The production classifier (:func:`repro.geometry.apollonius.
classify_points_pairwise`) never constructs a circle — it compares
``C*d_i <= d_j`` on row blocks of a distance matrix.  This oracle takes the
other road the paper describes (Eq. 4, Definition 2): build the two
axisymmetric Apollonius boundary circles of every pair explicitly and
classify each point by which circle contains it.  The two derivations
agree everywhere except within float rounding of a boundary, so the
differential harness exempts points that
:func:`pair_value_is_ambiguous` flags.

Everything here is scalar, one point and one pair at a time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.faces import FaceMap

__all__ = [
    "oracle_pair_value",
    "pair_value_is_ambiguous",
    "dense_signatures",
    "verify_face_map",
    "oracle_face_adjacency",
]


def _apollonius_center_radius(
    p_i: "tuple[float, float]", p_j: "tuple[float, float]", ratio: float
) -> tuple[float, float, float]:
    """Centre and radius of ``{x : |x - p_i| / |x - p_j| = ratio}`` (Eq. 4).

    Derived from scratch: writing ``|x - a|^2 = r^2 |x - b|^2`` and
    completing the square gives centre ``(a - r^2 b) / (1 - r^2)`` and
    radius ``r |a - b| / |1 - r^2|``.
    """
    ax, ay = float(p_i[0]), float(p_i[1])
    bx, by = float(p_j[0]), float(p_j[1])
    r2 = ratio * ratio
    cx = (ax - r2 * bx) / (1.0 - r2)
    cy = (ay - r2 * by) / (1.0 - r2)
    radius = ratio * math.hypot(ax - bx, ay - by) / abs(r2 - 1.0)
    return cx, cy, radius


def oracle_pair_value(
    point: "tuple[float, float]",
    p_i: "tuple[float, float]",
    p_j: "tuple[float, float]",
    c: float,
    *,
    sensing_range: "float | None" = None,
) -> int:
    """Signature value of one point for one node pair, via circle membership.

    +1 when the point lies inside (or on) the boundary circle that
    encloses ``n_i`` (``d_i/d_j = 1/C``), -1 when inside the one that
    encloses ``n_j`` (``d_i/d_j = C``), 0 in the uncertain band between
    them.  ``c == 1`` degenerates to the perpendicular bisector.  With a
    *sensing_range*, hearing gating overrides the band exactly as the
    production signatures do: one node in range forces +1/-1 toward it,
    neither in range forces 0.
    """
    if c < 1.0:
        raise ValueError(f"uncertainty constant must be >= 1, got {c}")
    x, y = float(point[0]), float(point[1])
    d_i = math.hypot(x - float(p_i[0]), y - float(p_i[1]))
    d_j = math.hypot(x - float(p_j[0]), y - float(p_j[1]))
    if c == 1.0:
        # bisector limit: the "circles" are the bisector line itself
        value = int(np.sign(d_j - d_i))
    else:
        near_i = _apollonius_center_radius(p_i, p_j, 1.0 / c)
        near_j = _apollonius_center_radius(p_i, p_j, c)
        value = 0
        if math.hypot(x - near_i[0], y - near_i[1]) <= near_i[2]:
            value = 1
        elif math.hypot(x - near_j[0], y - near_j[1]) <= near_j[2]:
            value = -1
    if sensing_range is not None:
        in_i = d_i <= sensing_range
        in_j = d_j <= sensing_range
        if in_i and not in_j:
            value = 1
        elif in_j and not in_i:
            value = -1
        elif not in_i and not in_j:
            value = 0
    return value


def pair_value_is_ambiguous(
    point: "tuple[float, float]",
    p_i: "tuple[float, float]",
    p_j: "tuple[float, float]",
    c: float,
    *,
    sensing_range: "float | None" = None,
    rtol: float = 1e-9,
) -> bool:
    """True when *point* sits within float rounding of a decision boundary.

    The circle-membership and distance-ratio formulations evaluate
    algebraically identical predicates through different float
    expressions; only points this close to a boundary can legitimately
    classify differently between the two.
    """
    x, y = float(point[0]), float(point[1])
    d_i = math.hypot(x - float(p_i[0]), y - float(p_i[1]))
    d_j = math.hypot(x - float(p_j[0]), y - float(p_j[1]))
    scale = max(d_i, d_j, 1.0)
    near_band = (
        abs(c * d_i - d_j) <= rtol * scale * max(c, 1.0)
        or abs(d_i - c * d_j) <= rtol * scale * max(c, 1.0)
    )
    if sensing_range is not None:
        near_band = (
            near_band
            or abs(d_i - sensing_range) <= rtol * scale
            or abs(d_j - sensing_range) <= rtol * scale
        )
    return near_band


def dense_signatures(
    points: np.ndarray,
    nodes: np.ndarray,
    c: float,
    *,
    sensing_range: "float | None" = None,
) -> np.ndarray:
    """(M, P) signature matrix computed point-by-point, pair-by-pair.

    The canonical pair order is re-derived locally (``(i, j)`` with
    ``i < j``, j innermost) rather than imported, so an enumeration bug
    in the production helpers would surface as a divergence here.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    n = len(nodes)
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sig = np.zeros((len(points), len(pair_list)), dtype=np.int8)
    for m, point in enumerate(points):
        for p, (i, j) in enumerate(pair_list):
            sig[m, p] = oracle_pair_value(
                point, nodes[i], nodes[j], c, sensing_range=sensing_range
            )
    return sig


def verify_face_map(
    face_map: FaceMap, *, sensing_range: "float | None" = None
) -> dict:
    """Cross-check every grid cell of a built face map against the oracle.

    Returns ``{"n_cells", "n_checked", "n_ambiguous", "mismatches"}``
    where *mismatches* lists ``(cell, pair, production, oracle)`` for
    cells whose production signature disagrees with circle membership
    *away from* any boundary (ambiguous boundary cells are counted but
    exempted — the two formulations round differently there).
    """
    centers = face_map.grid.cell_centers
    prod = face_map.signatures[face_map.cell_face]  # (M, P) per-cell view
    nodes = face_map.nodes
    n = len(nodes)
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pair_list) != prod.shape[1]:
        raise AssertionError(
            f"pair count mismatch: oracle {len(pair_list)}, production {prod.shape[1]}"
        )
    n_ambiguous = 0
    mismatches: list[tuple[int, int, int, int]] = []
    for m in range(len(centers)):
        point = centers[m]
        for p, (i, j) in enumerate(pair_list):
            want = oracle_pair_value(
                point, nodes[i], nodes[j], face_map.c, sensing_range=sensing_range
            )
            got = int(prod[m, p])
            if got == want:
                continue
            if pair_value_is_ambiguous(
                point, nodes[i], nodes[j], face_map.c, sensing_range=sensing_range
            ):
                n_ambiguous += 1
                continue
            mismatches.append((m, p, got, want))
    centroid_errors = _verify_face_grouping(face_map)
    return {
        "n_cells": int(len(centers)),
        "n_checked": int(len(centers) * len(pair_list)),
        "n_ambiguous": n_ambiguous,
        "mismatches": mismatches,
        "centroid_errors": centroid_errors,
    }


def _verify_face_grouping(face_map: FaceMap) -> list[tuple[int, str]]:
    """Re-derive each face's cell count and Eq. 5 centroid with scalar sums.

    Cells are accumulated in ascending cell order — the same order the
    production ``np.bincount`` consumes them in — so the floating-point
    centroid must be *bit-identical*, not merely close.
    """
    errors: list[tuple[int, str]] = []
    centers = face_map.grid.cell_centers
    sums_x = [0.0] * face_map.n_faces
    sums_y = [0.0] * face_map.n_faces
    counts = [0] * face_map.n_faces
    for m, fid in enumerate(face_map.cell_face):
        fid = int(fid)
        sums_x[fid] += float(centers[m, 0])
        sums_y[fid] += float(centers[m, 1])
        counts[fid] += 1
    for fid in range(face_map.n_faces):
        if counts[fid] != int(face_map.cell_counts[fid]):
            errors.append((fid, f"cell count {face_map.cell_counts[fid]} != {counts[fid]}"))
            continue
        if counts[fid] == 0:
            errors.append((fid, "empty face"))
            continue
        cx = sums_x[fid] / counts[fid]
        cy = sums_y[fid] / counts[fid]
        gx, gy = float(face_map.centroids[fid, 0]), float(face_map.centroids[fid, 1])
        if cx != gx or cy != gy:
            errors.append((fid, f"centroid ({gx}, {gy}) != oracle ({cx}, {cy})"))
    return errors


def oracle_face_adjacency(face_map: FaceMap) -> list[list[int]]:
    """Neighbor lists of every face (Definition 8), one cell at a time.

    Two faces are neighbors when some cell of one shares a grid edge with
    some cell of the other.  Walks every cell and its right and upper
    neighbors.  Each list holds the higher face ids ascending, then the
    lower ones ascending: the order of the production adjacency, which
    decides the order Algorithm 2 meets ring faces in.
    """
    nx, ny = face_map.grid.nx, face_map.grid.ny
    cell_face = face_map.cell_face
    neighbors: list[set[int]] = [set() for _ in range(face_map.n_faces)]
    for iy in range(ny):
        for ix in range(nx):
            here = int(cell_face[iy * nx + ix])
            for jy, jx in ((iy, ix + 1), (iy + 1, ix)):
                if jy >= ny or jx >= nx:
                    continue
                there = int(cell_face[jy * nx + jx])
                if there != here:
                    neighbors[here].add(there)
                    neighbors[there].add(here)
    return [
        sorted(g for g in nbrs if g > f) + sorted(g for g in nbrs if g < f)
        for f, nbrs in enumerate(neighbors)
    ]
