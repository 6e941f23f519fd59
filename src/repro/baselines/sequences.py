"""Detection node sequences and rank-sequence comparisons.

The certain-sequence methods ([22], [23], [24]) sort sensors by RSS into a
"detection node sequence" and localize by comparing it with each face's
ideal sequence.  Pairwise sign vectors are the equivalent encoding this
library uses throughout (a total order on n items *is* its C(n,2) pairwise
comparison outcomes), which makes the baselines directly comparable with
FTTT's vector machinery.
"""

from __future__ import annotations

import numpy as np

from repro.core.vectors import mean_rss
from repro.geometry.primitives import enumerate_pairs

__all__ = [
    "detection_sequence",
    "mean_rss",
    "sign_vector_from_rss",
    "sign_vectors_from_rss",
    "sign_vector_from_ranks",
    "kendall_distance",
    "spearman_footrule",
]


def detection_sequence(rss_row: np.ndarray) -> np.ndarray:
    """Node ids in descending-RSS order (the paper's detection sequence).

    NaN entries (silent sensors) sort to the end, mirroring the Eq. 6
    convention that silent sensors read weaker than reporting ones.
    """
    rss_row = np.asarray(rss_row, dtype=float)
    key = np.where(np.isnan(rss_row), -np.inf, rss_row)
    return np.argsort(-key, kind="stable")


def sign_vector_from_rss(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
    *,
    reduce: str = "mean",
) -> np.ndarray:
    """Pairwise sign vector of one detection outcome: the ``T = 1`` case of
    :func:`sign_vectors_from_rss`.

    *rss* is a ``(n,)`` one-shot RSS row or a ``(k, n)`` group.
    """
    rss = np.asarray(rss, dtype=float)
    if rss.ndim not in (1, 2):
        raise ValueError(f"rss must be 1-D or 2-D, got shape {rss.shape}")
    return sign_vectors_from_rss(np.atleast_2d(rss)[None], pairs, reduce=reduce)[0]


def sign_vectors_from_rss(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
    *,
    reduce: str = "mean",
) -> np.ndarray:
    """Pairwise sign vectors of a ``(T, k, n)`` stack of detection outcomes.

    Parameters
    ----------
    rss : one ``(k, n)`` group per round, reduced per *reduce*.
    reduce : ``"mean"`` averages the group before comparing (the strongest
        fair reading a certain-sequence method can get from the same data
        FTTT sees); ``"last"`` uses the final sample only (literal one-shot
        sensing).

    Returns
    -------
    (T, P) float vectors in {-1, 0, +1}; NaN where both sensors are silent
    (a silent sensor reads weaker than a reporting one).
    """
    rss = np.asarray(rss, dtype=float)
    if rss.ndim != 3:
        raise ValueError(f"rss must be a (T, k, n) stack, got shape {rss.shape}")
    if reduce == "mean":
        rows = mean_rss(rss)
    elif reduce == "last":
        rows = rss[:, -1]
    else:
        raise ValueError(f"unknown reduce {reduce!r}")
    n = rows.shape[1]
    if pairs is None:
        pairs = enumerate_pairs(n)
    i_idx, j_idx = pairs
    a, b = rows[:, i_idx], rows[:, j_idx]
    both_nan = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        val = np.sign(
            np.where(np.isnan(a), -np.inf, a) - np.where(np.isnan(b), -np.inf, b)
        ).astype(float)
    val[both_nan] = np.nan
    return val


def sign_vector_from_ranks(ranks: np.ndarray, pairs: "tuple[np.ndarray, np.ndarray] | None" = None) -> np.ndarray:
    """Pairwise sign vector from a distance-rank vector (rank 0 = nearest)."""
    ranks = np.asarray(ranks)
    if pairs is None:
        pairs = enumerate_pairs(len(ranks))
    i_idx, j_idx = pairs
    return np.sign(ranks[j_idx] - ranks[i_idx]).astype(float)


def kendall_distance(seq_a: np.ndarray, seq_b: np.ndarray) -> int:
    """Number of discordant pairs between two orderings of the same items."""
    seq_a = np.asarray(seq_a)
    seq_b = np.asarray(seq_b)
    if sorted(seq_a.tolist()) != sorted(seq_b.tolist()):
        raise ValueError("sequences must be permutations of the same items")
    n = len(seq_a)
    pos_b = np.empty(n, dtype=np.int64)
    pos_b[seq_b] = np.arange(n)
    mapped = pos_b[seq_a]
    i, j = np.triu_indices(n, k=1)
    return int(np.count_nonzero(mapped[i] > mapped[j]))


def spearman_footrule(seq_a: np.ndarray, seq_b: np.ndarray) -> int:
    """Sum of absolute rank displacements between two orderings."""
    seq_a = np.asarray(seq_a)
    seq_b = np.asarray(seq_b)
    if sorted(seq_a.tolist()) != sorted(seq_b.tolist()):
        raise ValueError("sequences must be permutations of the same items")
    n = len(seq_a)
    pos_a = np.empty(n, dtype=np.int64)
    pos_b = np.empty(n, dtype=np.int64)
    pos_a[seq_a] = np.arange(n)
    pos_b[seq_b] = np.arange(n)
    return int(np.abs(pos_a - pos_b).sum())
