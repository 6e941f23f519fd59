"""Perpendicular-bisector classification (certain-sequence world).

The baselines the paper compares against ([22], [24]) divide the field by
the perpendicular bisectors of node pairs and assume every RSS comparison
is reliable.  This module provides that classification — it is exactly the
``C -> 1`` limit of the Apollonius machinery.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import enumerate_pairs, pairwise_distances

__all__ = ["certain_signatures"]

CHUNK_PAIRS = 256  # pairs classified per block of certain_signatures


def certain_signatures(
    points: np.ndarray,
    nodes: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Signature matrix under the *certain* (no-uncertainty) assumption.

    Identical layout to
    :func:`repro.geometry.apollonius.classify_points_pairwise` but with the
    uncertain band collapsed to the bisector line itself: values are ±1
    almost everywhere (0 only exactly on a bisector).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if pairs is None:
        pairs = enumerate_pairs(len(nodes))
    i_idx, j_idx = pairs
    dist = pairwise_distances(points, nodes)
    n_pairs = len(i_idx)
    sig = np.empty((len(points), n_pairs), dtype=np.int8)
    for start in range(0, n_pairs, CHUNK_PAIRS):
        stop = min(start + CHUNK_PAIRS, n_pairs)
        di = dist[:, i_idx[start:stop]]
        dj = dist[:, j_idx[start:stop]]
        sig[:, start:stop] = np.sign(dj - di)
    return sig
