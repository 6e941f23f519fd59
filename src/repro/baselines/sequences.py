"""Pairwise sign vectors: the detection node sequence, encoded.

The certain-sequence methods ([22], [23], [24]) sort sensors by RSS into a
"detection node sequence" and localize by comparing it with each face's
ideal sequence.  Pairwise sign vectors are the equivalent encoding this
library uses instead (a total order on n items *is* its C(n,2) pairwise
comparison outcomes), which makes the baselines directly comparable with
FTTT's vector machinery.
"""

from __future__ import annotations

import numpy as np

from repro.core.vectors import mean_rss
from repro.geometry.primitives import enumerate_pairs

__all__ = ["mean_rss", "sign_vectors_from_rss"]


def sign_vectors_from_rss(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Pairwise sign vectors of a ``(T, k, n)`` stack of detection outcomes.

    Parameters
    ----------
    rss : one ``(k, n)`` group per round, averaged before comparing (the
        strongest fair reading a certain-sequence method can get from the
        same data FTTT sees; pass a ``(T, 1, n)`` stack of single samples
        for literal one-shot sensing).

    Returns
    -------
    (T, P) float vectors in {-1, 0, +1}; NaN where both sensors are silent
    (a silent sensor reads weaker than a reporting one).
    """
    rss = np.asarray(rss, dtype=float)
    if rss.ndim != 3:
        raise ValueError(f"rss must be a (T, k, n) stack, got shape {rss.shape}")
    rows = mean_rss(rss)
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
