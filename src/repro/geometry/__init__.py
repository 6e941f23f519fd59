"""Geometry substrate.

Implements the computational geometry the paper builds on: Apollonius
uncertain boundaries of node pairs (Eq. 3-4), perpendicular-bisector
classification for the certain-sequence baselines, the approximate grid
division of the monitor area (paper §4.3-2), and the face map with
signature vectors and neighbor-face links (Definitions 6 & 8, Theorem 1).
"""

from repro.geometry.primitives import (
    Circle,
    pairwise_distances,
    point_in_circle,
    enumerate_pairs,
)
from repro.geometry.apollonius import (
    uncertainty_constant,
    effective_uncertainty_constant,
    apollonius_circle,
    uncertain_boundary_circles,
    classify_points_pairwise,
    uncertain_band_halfwidth,
)
from repro.geometry.bisector import certain_signatures
from repro.geometry.grid import Grid
from repro.geometry.components import UnionFind, label_equal_regions
from repro.geometry.faces import Face, FaceMap, build_face_map, build_certain_face_map
from repro.geometry.cache import (
    FaceMapCache,
    face_map_cache_key,
    get_face_map,
    default_face_map_cache,
    configure_face_map_cache,
    face_map_cache_enabled,
)
from repro.geometry.exact import (
    circle_intersections,
    RefinedFace,
    refine_face,
    boundary_cell_fraction,
)

__all__ = [
    "Circle",
    "pairwise_distances",
    "point_in_circle",
    "enumerate_pairs",
    "uncertainty_constant",
    "effective_uncertainty_constant",
    "apollonius_circle",
    "uncertain_boundary_circles",
    "classify_points_pairwise",
    "uncertain_band_halfwidth",
    "certain_signatures",
    "Grid",
    "UnionFind",
    "label_equal_regions",
    "Face",
    "FaceMap",
    "build_face_map",
    "build_certain_face_map",
    "FaceMapCache",
    "face_map_cache_key",
    "get_face_map",
    "default_face_map_cache",
    "configure_face_map_cache",
    "face_map_cache_enabled",
    "circle_intersections",
    "RefinedFace",
    "refine_face",
    "boundary_cell_fraction",
]
