"""Connected-component labelling for equal-signature regions.

Lemma 1 of the paper identifies faces with signature vectors; on a raster
the discretization can occasionally leave two disconnected cell groups with
the same signature.  :func:`label_equal_regions` splits them with a simple
array-based union-find over the 4-connected grid graph, restricted to edges
whose endpoints share a signature id.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnionFind", "label_equal_regions"]


class UnionFind:
    """Array-backed disjoint-set with path halving and union by size.

    Vectorization note: ``union_many`` accepts edge arrays so that callers
    never loop in Python over individual grid cells — only over edges that
    actually merge components.
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"size must be non-negative, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def union_many(self, a: np.ndarray, b: np.ndarray) -> int:
        """Union each edge ``(a[k], b[k])``; returns the number of merges."""
        merges = 0
        for x, y in zip(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)):
            if self.union(int(x), int(y)):
                merges += 1
        return merges

    def labels(self) -> np.ndarray:
        """Canonical component label (0..k-1 for k components) for every element."""
        n = len(self.parent)
        roots = np.empty(n, dtype=np.int64)
        for i in range(n):
            roots[i] = self.find(i)
        _, labels = np.unique(roots, return_inverse=True)
        return labels


def label_equal_regions(
    value_ids: np.ndarray,
    neighbor_a: np.ndarray,
    neighbor_b: np.ndarray,
) -> np.ndarray:
    """Split equal-value regions into connected components.

    Parameters
    ----------
    value_ids : (M,) integer id per cell (e.g. signature id).
    neighbor_a, neighbor_b : adjacency edge lists over cells.

    Returns
    -------
    (M,) component labels, contiguous from 0.  Two cells share a label iff
    they have equal ``value_ids`` *and* are connected through cells of the
    same value.
    """
    value_ids = np.asarray(value_ids)
    neighbor_a = np.asarray(neighbor_a, dtype=np.int64)
    neighbor_b = np.asarray(neighbor_b, dtype=np.int64)
    if neighbor_a.shape != neighbor_b.shape:
        raise ValueError("edge lists must have equal length")
    same = value_ids[neighbor_a] == value_ids[neighbor_b]
    uf = UnionFind(len(value_ids))
    uf.union_many(neighbor_a[same], neighbor_b[same])
    return uf.labels()
