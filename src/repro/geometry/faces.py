"""Face map: the divided monitor area with signature vectors (paper §4.3).

The uncertain boundaries of all node pairs divide the field into faces;
each face carries a unique signature vector (Definition 6, Lemma 1) and
links to its neighbor faces (Definition 8) so the tracker can hill-climb
instead of scanning all O(n^4) faces (Theorem 1, Algorithm 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.bisector import certain_signatures
from repro.geometry.components import label_equal_regions
from repro.geometry.grid import Grid
from repro.obs import metrics as obs

__all__ = ["Face", "FaceMap", "build_face_map", "build_certain_face_map"]

#: Bound on the float32 temporaries one block of the batched distance
#: kernel may allocate (see ``FaceMap._block_rows``).
_GEMM_TEMP_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class Face:
    """One face of the divided monitor area."""

    face_id: int
    signature: np.ndarray  # (P,) int8 in {-1, 0, +1}
    centroid: np.ndarray  # (2,) metres — centroid of member cell centres (Eq. 5)
    n_cells: int
    area_m2: float


class _Query(NamedTuple):
    """Sampling vectors prepared for ``FaceMap._sq_distances``."""

    v0: np.ndarray  # (B, P) float32, ``*`` components zeroed
    mask: "np.ndarray | None"  # (B, P) bool ``*`` components; None if there are none
    soft: bool  # match against the soft signatures
    exact: bool  # qualitative signatures and every component a small integer


class FaceMap:
    """The complete division of the field plus matching accelerators.

    Attributes
    ----------
    nodes : (n, 2) sensor positions.
    grid : the raster used for the approximate division.
    c : uncertainty constant used for the boundaries (1.0 = certain/bisector map).
    signatures : (F, P) int8 — one signature vector per face.
    centroids : (F, 2) face centroids.
    cell_face : (M,) face id of every grid cell.
    cell_counts : (F,) number of cells per face.
    adjacency : CSR-style neighbor-face links (``adj_indptr``/``adj_indices``).
    """

    def __init__(
        self,
        nodes: np.ndarray,
        grid: Grid,
        c: float,
        signatures: np.ndarray,
        centroids: np.ndarray,
        cell_face: np.ndarray,
        cell_counts: np.ndarray,
        adj_indptr: np.ndarray,
        adj_indices: np.ndarray,
        soft_signatures: np.ndarray | None = None,
    ) -> None:
        self.nodes = nodes
        self.grid = grid
        self.c = c
        self.signatures = signatures
        self.centroids = centroids
        self.cell_face = cell_face
        self.cell_counts = cell_counts
        self.adj_indptr = adj_indptr
        self.adj_indices = adj_indices
        self.soft_signatures = soft_signatures
        self._signatures_f32: np.ndarray | None = None
        self._qual_sq_rows: np.ndarray | None = None
        self._qual_sq_t: np.ndarray | None = None
        # Algorithm 2's climb rings by hops, then by face (repro.core.heuristic)
        self._rings: dict[int, dict[int, np.ndarray]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaceMap(n_nodes={self.n_nodes}, n_faces={self.n_faces}, "
            f"n_pairs={self.n_pairs}, c={self.c})"
        )

    def view(self) -> "FaceMap":
        """A shallow copy sharing every (never-mutated) array and the ring
        memo (rings depend on the map alone) but owning its own
        ``soft_signatures`` slot, so callers can attach soft signatures
        without leaking them into other holders of the same map.

        The memo lives as long as the map and every view of it; a map held
        by the face-map cache keeps its rings until the cache drops it."""
        clone = FaceMap.__new__(FaceMap)
        clone.__dict__.update(self.__dict__)
        clone.soft_signatures = None
        return clone

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_pairs(self) -> int:
        return self.signatures.shape[1]

    @property
    def n_faces(self) -> int:
        return self.signatures.shape[0]

    def face(self, face_id: int) -> Face:
        if not (0 <= face_id < self.n_faces):
            raise IndexError(f"face id {face_id} out of range [0, {self.n_faces})")
        n_cells = int(self.cell_counts[face_id])
        return Face(
            face_id=face_id,
            signature=self.signatures[face_id],
            centroid=self.centroids[face_id],
            n_cells=n_cells,
            area_m2=n_cells * self.grid.cell_size**2,
        )

    def faces(self) -> list[Face]:
        return [self.face(i) for i in range(self.n_faces)]

    def face_of_point(self, point: np.ndarray) -> int:
        """Face id containing *point* (via its grid cell)."""
        return int(self.cell_face[self.grid.cell_of(np.asarray(point))[0]])

    def neighbors(self, face_id: int) -> np.ndarray:
        """Neighbor face ids of *face_id* (Definition 8)."""
        if not (0 <= face_id < self.n_faces):
            raise IndexError(f"face id {face_id} out of range [0, {self.n_faces})")
        return self.adj_indices[self.adj_indptr[face_id] : self.adj_indptr[face_id + 1]]

    @property
    def n_certain_faces(self) -> int:
        """Faces with no uncertain pair (Fig. 3: these vanish as C or spacing grows)."""
        return int(np.count_nonzero(np.all(self.signatures != 0, axis=1)))

    # -- matching ---------------------------------------------------------

    def _sig_f32(self) -> np.ndarray:
        if self._signatures_f32 is None:
            self._signatures_f32 = self.signatures.astype(np.float32)
        return self._signatures_f32

    def signature_matrix(self, *, soft: bool = False) -> np.ndarray:
        """(F, P) float32 signatures — qualitative, or the soft/expected
        quantitative variant when attached (see ``repro.core.extended``)."""
        if soft:
            if self.soft_signatures is None:
                raise ValueError(
                    "no soft signatures attached; call "
                    "repro.core.extended.attach_soft_signatures first"
                )
            return self.soft_signatures
        return self._sig_f32()

    def _query(self, V: np.ndarray, soft: bool) -> _Query:
        """Prepare ``(B, P)`` float32 sampling vectors *V* for
        :meth:`_sq_distances`; Algorithm 2 scores its rings and its fallback
        scan with one."""
        mask = np.isnan(V)
        v0 = np.where(mask, np.float32(0.0), V)
        exact = not soft and bool((v0 == np.rint(v0)).all() and (np.abs(v0) <= 8.0).all())
        return _Query(v0, mask if mask.any() else None, soft, exact)

    def _sq_distances(self, q: _Query, face_ids: "np.ndarray | None" = None) -> np.ndarray:
        """The one squared-distance kernel: the vectors of *q* against every
        face, or only against *face_ids*; ``(B, F)`` float32 out.

        ``*`` components (NaN) contribute zero difference (Eq. 7).  When
        the signatures are the qualitative ``{-1, 0, +1}`` set and every
        vector component is a small integer (the basic Definition-4
        values), every product and partial sum is a small integer, exact
        in float32, so the result cannot depend on BLAS summation order,
        block size or the face subset.  A full scan is then one GEMM via
        the expansion ``|a - b|^2 = |a|^2 - 2 a.b + |b|^2``, with the
        signature energy of the masked columns subtracted; a face subset
        (an Algorithm 2 ring) is the direct difference ``(s - v)^2`` of its
        gathered rows, summed over the unmasked columns.  Fractional
        vectors (extended mode) and soft signatures take a per-row float32
        path instead, whose value for a face is the same whichever rows or
        faces share the call.
        """
        sigs = self.signature_matrix(soft=q.soft)
        if face_ids is not None:
            sigs = sigs[face_ids]
        if not q.exact:
            out = np.empty((len(q.v0), len(sigs)), dtype=np.float32)
            for b, v in enumerate(q.v0):
                diff = sigs - v  # one (F, P) temporary; * columns zeroed below
                if q.mask is not None:
                    diff[:, q.mask[b]] = 0.0
                out[b] = np.einsum("fp,fp->f", diff, diff)
            return out
        if face_ids is not None:
            out = np.empty((len(q.v0), len(sigs)), dtype=np.float32)
            for b, v in enumerate(q.v0):
                sq = np.square(sigs - v)
                out[b] = sq.sum(axis=1) if q.mask is None else sq @ (~q.mask[b]).astype(np.float32)
            return out
        sq_rows, sq_t = self._qual_sq()
        d2 = np.square(q.v0).sum(axis=1)[:, None] - np.float32(2.0) * (q.v0 @ sigs.T)
        d2 += sq_rows
        if q.mask is not None:
            # masked columns must contribute zero, not s^2: subtract their energy
            d2 -= q.mask.astype(np.float32) @ sq_t
        return d2

    def _qual_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``sum_p s^2`` per face and ``(s^2)^T`` for the GEMM expansion."""
        if self._qual_sq_rows is None:
            sq = np.square(self._sig_f32())
            self._qual_sq_rows = sq.sum(axis=1)
            self._qual_sq_t = np.ascontiguousarray(sq.T)
        return self._qual_sq_rows, self._qual_sq_t

    def _as_rows(self, vectors: np.ndarray) -> np.ndarray:
        V = np.asarray(vectors, dtype=np.float32)
        if V.ndim != 2 or V.shape[1] != self.n_pairs:
            raise ValueError(f"vectors have shape {V.shape}, expected (B, {self.n_pairs})")
        return V

    def _as_row(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float32)
        if v.shape != (self.n_pairs,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n_pairs},)")
        return v[None]

    def _block_rows(self) -> int:
        """Trace-axis block size bounding one block's (B, F) float32
        temporaries by ``_GEMM_TEMP_BYTES``."""
        return max(1, _GEMM_TEMP_BYTES // (4 * max(1, self.n_faces)))

    def distances_to(self, vector: np.ndarray) -> np.ndarray:
        """Squared vector distance from *vector* to every (hard) face signature.

        NaN components of *vector* are the ``*`` fault values of Eq. 7 and
        contribute zero difference.
        """
        return self._sq_distances(self._query(self._as_row(vector), False))[0]

    def distances_to_many(self, vectors: np.ndarray) -> np.ndarray:
        """Squared vector distance from each of ``(B, P)`` *vectors* to every
        (hard) face signature.

        Row ``b`` is bit-identical to ``distances_to(vectors[b])`` (see
        :meth:`_sq_distances` for why).  The batch is processed in blocks
        of :meth:`_block_rows` traces so peak temporary allocation stays
        bounded however large B grows.
        """
        V = self._as_rows(vectors)
        step = self._block_rows()
        if len(V) <= step:
            return self._sq_distances(self._query(V, False))
        out = np.empty((len(V), self.n_faces), dtype=np.float32)
        for start in range(0, len(V), step):
            block = self._query(V[start : start + step], False)
            out[start : start + step] = self._sq_distances(block)
        return out

    def tie_tolerance(self, best: float) -> float:
        """Tie threshold for :meth:`match`, relative to the distance scale.

        Two faces tie when their squared distances agree to within float32
        accumulation error over P = C(n, 2) terms — ``eps32 * sqrt(P)``
        relative — floored at the legacy absolute ``1e-6``.

        An exact match (``best == 0``) is special: its Definition 7
        similarity is infinite, so no other face can tie with it.  The
        relative tolerance is naturally 0 there, and applying the
        absolute floor instead would admit soft-signature faces a genuine
        ``~1e-8`` away — two bit-equal faces must tie with each other and
        with nothing else.
        """
        best = float(best)
        if best == 0.0:
            return 0.0
        eps32 = float(np.finfo(np.float32).eps)
        return max(1e-6, best * eps32 * math.sqrt(self.n_pairs))

    def _ties(self, d2: np.ndarray) -> tuple[list[np.ndarray], list[float]]:
        """Tied faces and best squared distance of each row of *d2*."""
        ties, bests = [], []
        for row in d2:
            best = float(row.min())
            ties.append(np.flatnonzero(row <= best + self.tie_tolerance(best)))
            bests.append(best)
        return ties, bests

    def _match_rows(self, V: np.ndarray, soft: bool) -> tuple[list[np.ndarray], np.ndarray]:
        """Tied faces and best squared distance per row of *V*, one
        :meth:`_block_rows` block of distances live at a time."""
        step = self._block_rows()
        ties: list[np.ndarray] = []
        bests: list[float] = []
        for start in range(0, len(V), step):
            t, b = self._ties(self._sq_distances(self._query(V[start : start + step], soft)))
            ties += t
            bests += b
        return ties, np.array(bests, dtype=float)

    def _record_matches(self, ties: list[np.ndarray]) -> None:
        obs.counter("geometry.match.rounds").inc(len(ties))
        h = obs.histogram("geometry.match.ties")
        for t in ties:
            h.observe(len(t))
        obs.gauge("geometry.match.candidate_faces").set(self.n_faces)

    def match(
        self, vector: "np.ndarray | _Query", *, soft: bool = False
    ) -> tuple[np.ndarray, float]:
        """Exhaustive maximum-likelihood matching (paper §4.4-1).

        Returns ``(face_ids, sq_distance)`` — all faces tying at the minimum
        squared vector distance.  Similarity of Definition 7 is
        ``1/sqrt(sq_distance)`` (infinite on exact match).

        *vector* may also be a one-row query from :meth:`_query`, which
        then carries its own *soft*: Algorithm 2's fallback scans with the
        query its climb prepared.
        """
        if isinstance(vector, _Query):
            ties, bests = self._ties(self._sq_distances(vector))
        else:
            ties, bests = self._match_rows(self._as_row(vector), soft)
        if obs.enabled():
            self._record_matches(ties)
        return ties[0], float(bests[0])

    def match_many(
        self, vectors: np.ndarray, *, soft: bool = False
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Batched :meth:`match` over ``(B, P)`` *vectors*.

        Returns ``(ties_per_row, best_sq_distances)`` — identical, row for
        row, to calling :meth:`match` in a loop (see :meth:`_sq_distances`
        for why).
        """
        ties, bests = self._match_rows(self._as_rows(vectors), soft)
        if obs.enabled():
            self._record_matches(ties)
            obs.counter("geometry.match.batched_rounds").inc(len(ties))
        return ties, bests


def _build_adjacency(cell_face: np.ndarray, grid: Grid, n_faces: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = grid.neighbor_pairs()
    fa, fb = cell_face[a], cell_face[b]
    diff = fa != fb
    fa, fb = fa[diff], fb[diff]
    lo = np.minimum(fa, fb)
    hi = np.maximum(fa, fb)
    edges = np.unique(lo.astype(np.int64) * n_faces + hi.astype(np.int64))
    lo = (edges // n_faces).astype(np.int64)
    hi = (edges % n_faces).astype(np.int64)
    # symmetric CSR
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n_faces + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows + inverse indices via a void view (one memcmp per compare,
    ~10x faster than ``np.unique(axis=0)`` on wide int8 signature matrices)."""
    a = np.ascontiguousarray(a)
    void = a.view([("bytes", f"V{a.shape[1] * a.itemsize}")]).ravel()
    _, first_idx, inverse = np.unique(void, return_index=True, return_inverse=True)
    return a[first_idx], inverse.ravel()


def _faces_from_signatures(
    cell_sigs: np.ndarray, grid: Grid, split_components: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group cells into faces; returns (signatures, centroids, cell_face, counts)."""
    unique_rows, sig_ids = _unique_rows(cell_sigs)
    if split_components:
        a, b = grid.neighbor_pairs()
        face_ids = label_equal_regions(sig_ids, a, b)
        # labels run 0..F-1, so the first cell of each, in label order, gives
        # every face its representative signature
        first_cell = np.unique(face_ids, return_index=True)[1]
        n_faces = len(first_cell)
        face_rows = cell_sigs[first_cell]
    else:
        face_ids = sig_ids
        n_faces = len(unique_rows)
        face_rows = unique_rows
    counts = np.bincount(face_ids, minlength=n_faces).astype(np.int64)
    centers = grid.cell_centers
    cx = np.bincount(face_ids, weights=centers[:, 0], minlength=n_faces)
    cy = np.bincount(face_ids, weights=centers[:, 1], minlength=n_faces)
    centroids = np.column_stack([cx, cy]) / counts[:, None]
    return face_rows.astype(np.int8), centroids, face_ids.astype(np.int64), counts


def _assemble_face_map(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    cell_sigs: np.ndarray,
    split_components: bool,
) -> FaceMap:
    signatures, centroids, cell_face, counts = _faces_from_signatures(cell_sigs, grid, split_components)
    indptr, indices = _build_adjacency(cell_face, grid, len(signatures))
    return FaceMap(
        nodes=nodes,
        grid=grid,
        c=c,
        signatures=signatures,
        centroids=centroids,
        cell_face=cell_face,
        cell_counts=counts,
        adj_indptr=indptr,
        adj_indices=indices,
    )


def _as_nodes(nodes: np.ndarray) -> np.ndarray:
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if len(nodes) < 2:
        raise ValueError(f"need at least two nodes, got {len(nodes)}")
    return nodes


def build_face_map(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    *,
    sensing_range: float | None = None,
    split_components: bool = False,
) -> FaceMap:
    """Divide the field by all pairwise uncertain boundaries (Definition 2).

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    grid : raster for the approximate division (paper §4.3-2).
    c : uncertainty constant from
        :func:`repro.geometry.apollonius.uncertainty_constant`.
    sensing_range : sensor hearing radius R; when given, signatures apply
        the Eq. 6 semantics for pairs whose nodes cannot hear a face
        (see :func:`~repro.geometry.apollonius.classify_points_pairwise`).
    split_components : also split equal-signature regions that are not
        connected (strict face semantics).  Off by default — matching
        semantics are identical and the paper's own evaluation groups by
        signature.
    """
    nodes = _as_nodes(nodes)
    cell_sigs = classify_points_pairwise(grid.cell_centers, nodes, c, sensing_range=sensing_range)
    return _assemble_face_map(nodes, grid, c, cell_sigs, split_components)


def build_certain_face_map(
    nodes: np.ndarray,
    grid: Grid,
    *,
    split_components: bool = False,
) -> FaceMap:
    """Face map of the certain-sequence baselines: bisector division only.

    This is the classic division of [22]/[24] — Fig. 3(a) of the paper —
    obtained in the ``C -> 1`` limit.  ``c`` is recorded as 1.0.
    """
    nodes = _as_nodes(nodes)
    cell_sigs = certain_signatures(grid.cell_centers, nodes)
    return _assemble_face_map(nodes, grid, 1.0, cell_sigs, split_components)
