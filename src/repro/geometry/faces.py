"""Face map: the divided monitor area with signature vectors (paper §4.3).

The uncertain boundaries of all node pairs divide the field into faces;
each face carries a unique signature vector (Definition 6, Lemma 1) and
links to its neighbor faces (Definition 8) so the tracker can hill-climb
instead of scanning all O(n^4) faces (Theorem 1, Algorithm 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

#: Smallest map, in signature entries F * P, whose exact-path scans take
#: the pruned search (``FaceMap._pruned_ties``).  Its per-round Python
#: loop costs ~50 us, so a 25-round block of fault-free rounds breaks
#: even with the batched GEMM near here (1.03x at 1.23 M: n=25, 1 m
#: cells; 1.5x at 2.4 M: n=30; 1.7x at 5.7 M: n=40), while one-row scans
#: gain 1.4x at 1.23 M and 3.3-3.9x at 49 M (n=100); 2 vCPUs, one BLAS
#: thread.  Faulty rounds barely prune: 0.9-1.0x one row at a time and
#: 0.73-0.94x in 25-round blocks (dropout 0.2, n=25-40).
_PRUNE_MIN_ENTRIES = 1_250_000

#: Pair-column cuts of the pruned search, as fractions of P: the first
#: pass sums Eq. 7 over the columns before the first cut, and survivors
#: are extended block by block up to P.
_PRUNE_CUTS = (0.25, 0.5)

#: Faces per round scored in full for the pruned search's upper bound.
_PRUNE_PROBES = 4


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
    sigs: np.ndarray  # (F, P) float32 signatures the vectors are scored against
    exact: bool  # qualitative signatures and every component a small integer


class FaceMap:
    """The complete division of the field plus matching accelerators.

    A map is a value: its arrays are read-only once built, so the face-map
    cache and every tracker can share one instance.  Matching against the
    soft signatures of §6 takes them as an argument (``soft=``); the map
    holds the qualitative ones only.

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
    ) -> None:
        self.nodes = _read_only(nodes)
        self.grid = grid
        self.c = c
        self.signatures = _read_only(signatures)
        self.centroids = _read_only(centroids)
        self.cell_face = _read_only(cell_face)
        self.cell_counts = _read_only(cell_counts)
        self.adj_indptr = _read_only(adj_indptr)
        self.adj_indices = _read_only(adj_indices)
        # Algorithm 2's climb rings by hops, then by face (repro.core.heuristic)
        self._rings: dict[int, dict[int, np.ndarray]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaceMap(n_nodes={self.n_nodes}, n_faces={self.n_faces}, "
            f"n_pairs={self.n_pairs}, c={self.c})"
        )

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

    @cached_property
    def _sig_f32(self) -> np.ndarray:
        """(F, P) float32 qualitative signatures, the matching matrix."""
        return _read_only(self.signatures.astype(np.float32))

    def _query(self, V: np.ndarray, soft: "np.ndarray | None" = None) -> _Query:
        """Prepare ``(B, P)`` float32 sampling vectors *V* for
        :meth:`_sq_distances` against the ``(F, P)`` *soft* signatures, or
        the qualitative ones when *soft* is None; Algorithm 2 scores its
        rings and its fallback scan with one."""
        mask = np.isnan(V)
        v0 = np.where(mask, np.float32(0.0), V)
        exact = soft is None and bool((v0 == np.rint(v0)).all() and (np.abs(v0) <= 8.0).all())
        sigs = self._sig_f32 if soft is None else soft
        return _Query(v0, mask if mask.any() else None, sigs, exact)

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
        sigs = q.sigs
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
        sq_rows, sq_t, _ = self._qual_sq
        return _expansion(q.v0, q.mask, sigs, sq_t, sq_rows)

    @cached_property
    def _qual_sq(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """``sum_p s^2`` per face and ``(s^2)^T`` for the GEMM expansion,
        and for :meth:`_pruned_ties` ``sum_p s^2`` per face before and after
        the first cut."""
        sq = np.square(self._sig_f32)
        rows = sq.sum(axis=1)
        head = sq[:, : self._prune_cuts()[0]].sum(axis=1)
        return rows, np.ascontiguousarray(sq.T), (head, rows - head)

    def _prune_cuts(self) -> list[int]:
        """Pair-column cuts of :meth:`_pruned_ties`, in the canonical column
        order: the end of the first pass, then every later cut, then P."""
        P = self.n_pairs
        return [max(1, int(P * f)) for f in _PRUNE_CUTS] + [P]

    def _pruned_ties(self, q: _Query) -> tuple[list[np.ndarray], list[float], int]:
        """``_ties(_sq_distances(q))`` for an exact query, by partial-distance
        search (Bei & Gray, IEEE Trans. Commun. 1985); also returns the
        number of faces whose distance was completed.

        Every Eq. 7 term is non-negative, so the sum over the first pair
        columns bounds a face's distance from below.  One GEMM over those
        columns (a strided view of the signatures, nothing copied) gives
        that bound for every face of every round; per round, the
        :data:`_PRUNE_PROBES` faces with the smallest bound are scored in
        full, and the best of them is an upper bound ``ub`` on the round's
        best distance.  The faces whose partial sum is at most
        ``ub + tie_tolerance(ub)`` are extended block by block over the
        later columns, from their gathered rows, and dropped once it
        exceeds that limit.  When a round keeps more than an eighth of its
        faces after the first pass (a faulty round, whose best distance is
        large), the whole block is finished by one more GEMM over the
        remaining columns instead, at about the cost of a full scan.

        A face that ties the winner is never dropped: its distance is at
        most ``best + tie_tolerance(best)``, which is at most the limit
        because ``best <= ub`` and the tolerance grows with its argument.
        On the exact path every partial sum is an exact float32 integer,
        so the completed distances, the ties and the best distance are
        those of the full scan bit for bit.
        """
        sigs = self._sig_f32
        _, sq_t, (head, tail) = self._qual_sq
        cuts = self._prune_cuts()
        c0 = cuts[0]
        F, P = self.n_faces, self.n_pairs
        v0, mask = q.v0, q.mask
        keep = None if mask is None else (~mask).astype(np.float32)

        def gathered(b: int, faces: np.ndarray, lo: int, hi: int) -> np.ndarray:
            # Eq. 7 of round b over columns [lo, hi) of the rows of *faces*,
            # in place in the gathered copy: one temporary, not three
            sq = sigs[faces, lo:hi]
            sq -= v0[b, lo:hi]
            np.square(sq, out=sq)
            return sq.sum(axis=1) if keep is None else sq @ keep[b, lo:hi]

        head_mask = None if mask is None else mask[:, :c0]
        partial = _expansion(v0[:, :c0], head_mask, sigs[:, :c0], sq_t[:c0], head)
        n_probes = min(_PRUNE_PROBES, F)
        probes = np.argpartition(partial, n_probes - 1, axis=1)[:, :n_probes]
        limits = []
        for b in range(len(v0)):
            ub = float(gathered(b, probes[b], 0, P).min())
            limits.append(ub + self.tie_tolerance(ub))
        kept = partial <= np.array(limits)[:, None]
        if (8 * np.count_nonzero(kept, axis=1) > F).any():
            # a round the bound cannot prune: one GEMM over the remaining
            # columns finishes the block, about the cost of a full scan
            tail_mask = None if mask is None else mask[:, c0:]
            partial += _expansion(v0[:, c0:], tail_mask, sigs[:, c0:], sq_t[c0:], tail)
            ties, bests = self._ties(partial)
            return ties, bests, F * len(v0)
        ties: list[np.ndarray] = []
        bests: list[float] = []
        scored = 0
        for b, limit in enumerate(limits):
            faces = np.flatnonzero(kept[b])
            d2 = partial[b, faces]
            for lo, hi in zip(cuts, cuts[1:]):
                if lo > c0:
                    alive = d2 <= limit
                    faces, d2 = faces[alive], d2[alive]
                d2 = d2 + gathered(b, faces, lo, hi)
            best = float(d2.min())
            ties.append(faces[d2 <= best + self.tie_tolerance(best)])
            bests.append(best)
            scored += len(faces)
        return ties, bests, scored

    def _scan(self, q: _Query) -> tuple[list[np.ndarray], list[float], int]:
        """Ties and best distance of every row of *q* against every face, and
        the number of faces scored in full: :meth:`_pruned_ties` on the exact
        path of a map of at least :data:`_PRUNE_MIN_ENTRIES` entries, the
        full :meth:`_sq_distances` scan otherwise."""
        if q.exact and self.signatures.size >= _PRUNE_MIN_ENTRIES:
            return self._pruned_ties(q)
        ties, bests = self._ties(self._sq_distances(q))
        return ties, bests, len(ties) * self.n_faces

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
        return self._sq_distances(self._query(self._as_row(vector)))[0]

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
            return self._sq_distances(self._query(V))
        out = np.empty((len(V), self.n_faces), dtype=np.float32)
        for start in range(0, len(V), step):
            block = self._query(V[start : start + step])
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

    def _match_rows(
        self, V: np.ndarray, soft: "np.ndarray | None"
    ) -> tuple[list[np.ndarray], np.ndarray, int]:
        """Tied faces, best squared distance per row of *V* and faces scored
        in full, one :meth:`_block_rows` block of distances live at a time."""
        step = self._block_rows()
        ties: list[np.ndarray] = []
        bests: list[float] = []
        scored = 0
        for start in range(0, len(V), step):
            t, b, n = self._scan(self._query(V[start : start + step], soft))
            ties += t
            bests += b
            scored += n
        return ties, np.array(bests, dtype=float), scored

    def _record_matches(self, ties: list[np.ndarray], scored: int) -> None:
        obs.counter("geometry.match.rounds").inc(len(ties))
        h = obs.histogram("geometry.match.ties")
        for t in ties:
            h.observe(len(t))
        obs.gauge("geometry.match.candidate_faces").set(self.n_faces)
        obs.counter("geometry.match.scored_faces").inc(scored)

    def match(
        self, vector: "np.ndarray | _Query", *, soft: "np.ndarray | None" = None
    ) -> tuple[np.ndarray, float]:
        """Exhaustive maximum-likelihood matching (paper §4.4-1).

        Returns ``(face_ids, sq_distance)`` — all faces tying at the minimum
        squared vector distance.  Similarity of Definition 7 is
        ``1/sqrt(sq_distance)`` (infinite on exact match).  *soft* is an
        ``(F, P)`` float32 matrix of soft signatures (§6) to match against
        instead of the qualitative ones.

        *vector* may also be a one-row query from :meth:`_query`, which
        then carries its own signatures: Algorithm 2's fallback scans with
        the query its climb prepared.

        On maps of at least :data:`_PRUNE_MIN_ENTRIES` signature entries an
        exact query (qualitative signatures, small-integer vector) is
        scanned by :meth:`_pruned_ties`, which completes the distance of a
        few hundred faces instead of all of them and returns the same ties
        and distance bit for bit; other queries run the full
        :meth:`_sq_distances` scan.
        """
        if isinstance(vector, _Query):
            ties, bests, scored = self._scan(vector)
        else:
            ties, bests, scored = self._match_rows(self._as_row(vector), soft)
        if obs.enabled():
            self._record_matches(ties, scored)
        return ties[0], float(bests[0])

    def match_many(
        self, vectors: np.ndarray, *, soft: "np.ndarray | None" = None
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Batched :meth:`match` over ``(B, P)`` *vectors*.

        Returns ``(ties_per_row, best_sq_distances)`` — identical, row for
        row, to calling :meth:`match` in a loop (see :meth:`_sq_distances`
        and :meth:`_pruned_ties` for why).  Each block of rows shares the
        first GEMM pass of the pruned search or the full scan's GEMM.
        """
        ties, bests, scored = self._match_rows(self._as_rows(vectors), soft)
        if obs.enabled():
            self._record_matches(ties, scored)
            obs.counter("geometry.match.batched_rounds").inc(len(ties))
        return ties, bests


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of *a*: one write would change the map for every
    holder."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _expansion(
    v: np.ndarray,
    mask: "np.ndarray | None",
    sigs: np.ndarray,
    sq_t: np.ndarray,
    energy: np.ndarray,
) -> np.ndarray:
    """Eq. 7 of exact rows *v* against qualitative signature columns *sigs*
    ``(F, J)``, by the GEMM expansion ``|v|^2 - 2 v.s + |s|^2``: *mask* marks
    the rows' ``*`` columns, *sq_t* is those columns' ``(s^2)^T`` and
    *energy* their ``sum s^2`` per face.  Column slices may be strided
    views; BLAS reads them in place."""
    d2 = np.square(v).sum(axis=1)[:, None] - np.float32(2.0) * (v @ sigs.T)
    d2 += energy
    if mask is not None:
        # masked columns must contribute zero, not s^2: subtract their energy
        d2 -= mask.astype(np.float32) @ sq_t
    return d2


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
