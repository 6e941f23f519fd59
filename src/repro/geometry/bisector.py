"""Perpendicular-bisector classification (certain-sequence world).

The baselines the paper compares against ([22], [24]) divide the field by
the perpendicular bisectors of node pairs and assume every RSS comparison
is reliable.  This module provides that classification — it is exactly the
``C -> 1`` limit of the Apollonius machinery.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import pair_row_blocks

__all__ = ["certain_signatures"]


def certain_signatures(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Signature matrix under the *certain* (no-uncertainty) assumption.

    Identical layout to
    :func:`repro.geometry.apollonius.classify_points_pairwise` but with the
    uncertain band collapsed to the bisector line itself: values are ±1
    almost everywhere (0 only exactly on a bisector).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    n = len(nodes)
    sig = np.empty((len(points), n * (n - 1) // 2), dtype=np.int8)
    for d, rows in pair_row_blocks(points, nodes, sig):
        for i, row in enumerate(rows):
            d_i, d_j = d[:, i : i + 1], d[:, i + 1 :]
            # sign(d_j - d_i): a float difference is 0 only for equal operands
            np.subtract(d_j > d_i, d_j < d_i, out=row, dtype=np.int8)
    return sig
