"""Quantitative signature model for extended FTTT (paper §6).

§6 quantifies the pairwise uncertainty on the *sampling* side: the
extended pair value ``(N_ij - N_ji)/k`` lives in [-1, 1].  Matching those
against qualitative {-1, 0, +1} signatures leaves information on the
table: deep inside a pair's uncertain band the expected extended value is
near 0, but near the band edge it is near ±1 — a gradient the qualitative
signature cannot express.  This module computes the *expected* extended
value of every face under the channel model,

    E[v] = P(RSS_i - RSS_j > eps) - P(RSS_j - RSS_i > eps)
         = Phi((dmu - eps) / (sqrt(2) sigma)) - Phi((-dmu - eps) / (sqrt(2) sigma)),
    dmu  = 10 beta log10(d_j / d_i),

averaged over the face's cells, with the same sensing-range semantics as
the qualitative signatures (one silent node => ±1, both silent => 0).
Matching extended sampling vectors against these soft signatures is the
natural completion of §6 and is what eliminates similarity ties.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.geometry.faces import FaceMap
from repro.geometry.primitives import enumerate_pairs, pairwise_distances

__all__ = ["expected_extended_signatures", "attach_soft_signatures"]

CHUNK_PAIRS = 128  # pairs per block: bounds the (cells, block) float64 temporaries


def expected_extended_signatures(
    face_map: FaceMap,
    *,
    path_loss_exponent: float,
    noise_sigma_dbm: float,
    resolution_dbm: float = 0.0,
    sensing_range: float | None = None,
) -> np.ndarray:
    """Per-face expected extended pair values, shape ``(F, P)`` float32.

    Parameters mirror the channel: *path_loss_exponent* and
    *noise_sigma_dbm* set the per-sample win probability, and
    *resolution_dbm* is the comparator deadband (a sample within it counts
    for neither side).
    """
    if path_loss_exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {path_loss_exponent}")
    if noise_sigma_dbm < 0 or resolution_dbm < 0:
        raise ValueError("sigma and resolution must be non-negative")
    grid = face_map.grid
    nodes = face_map.nodes
    cell_face = face_map.cell_face
    n_faces = face_map.n_faces
    i_idx, j_idx = enumerate_pairs(len(nodes))
    n_pairs = len(i_idx)
    if n_pairs != face_map.n_pairs:
        raise AssertionError("pair count mismatch between nodes and signatures")

    dist = pairwise_distances(grid.cell_centers, nodes)  # (M, n)
    counts = face_map.cell_counts.astype(np.float64)
    out = np.empty((n_faces, n_pairs), dtype=np.float32)
    denom = np.sqrt(2.0) * noise_sigma_dbm
    for start in range(0, n_pairs, CHUNK_PAIRS):
        stop = min(start + CHUNK_PAIRS, n_pairs)
        di = dist[:, i_idx[start:stop]]
        dj = dist[:, j_idx[start:stop]]
        with np.errstate(divide="ignore"):
            dmu = 10.0 * path_loss_exponent * (np.log10(dj) - np.log10(di))
        if noise_sigma_dbm > 0:
            vals = ndtr((dmu - resolution_dbm) / denom) - ndtr((-dmu - resolution_dbm) / denom)
        else:  # noiseless: hard sign outside the deadband
            vals = np.sign(dmu) * (np.abs(dmu) > resolution_dbm)
        if sensing_range is not None:
            in_i = di <= sensing_range
            in_j = dj <= sensing_range
            vals = np.where(in_i & ~in_j, 1.0, vals)
            vals = np.where(~in_i & in_j, -1.0, vals)
            vals = np.where(~in_i & ~in_j, 0.0, vals)
        acc = np.zeros((n_faces, stop - start))
        np.add.at(acc, cell_face, vals)
        out[:, start:stop] = (acc / counts[:, None]).astype(np.float32)
    return out


def attach_soft_signatures(
    face_map: FaceMap,
    *,
    path_loss_exponent: float,
    noise_sigma_dbm: float,
    resolution_dbm: float = 0.0,
    sensing_range: float | None = None,
) -> FaceMap:
    """Compute and attach soft signatures to *face_map* (idempotent)."""
    if face_map.soft_signatures is None:
        face_map.soft_signatures = expected_extended_signatures(
            face_map,
            path_loss_exponent=path_loss_exponent,
            noise_sigma_dbm=noise_sigma_dbm,
            resolution_dbm=resolution_dbm,
            sensing_range=sensing_range,
        )
    return face_map
