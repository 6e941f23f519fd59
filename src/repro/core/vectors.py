"""Sampling-vector construction (Algorithm 1, Definitions 3-5, 10; Eq. 6).

A grouping sampling is a ``(k, n)`` RSS matrix — k near-synchronous sample
instants by n sensors, NaN where a sensor did not report.  For every node
pair ``(i, j), i < j`` in the canonical enumeration, the pair value is

* **basic** (Definition 4): +1 if node i's RSS beats node j's at *every*
  instant, -1 if it loses at every instant, 0 if the ordering flipped
  within the group;
* **extended** (Definition 10): ``(N_ij - N_ji) / k`` in ``[-1, 1]`` — the
  signed fraction of instants won;
* **fault-tolerant fill** (Eq. 6): a reporting sensor is assumed stronger
  than a silent one (+1 / -1), and two silent sensors give the ``*`` value,
  represented as NaN and masked out of every vector difference (Eq. 7).

The stacked ``(T, k, n)`` kernels here are the production path, and the
single-round functions are their ``T = 1`` case.  The loop-based
transcription of Algorithm 1 that pins them lives in the oracle tier
(:func:`repro.oracle.oracle_sampling_vector`).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import enumerate_pairs

__all__ = [
    "STAR",
    "sampling_vector",
    "extended_sampling_vector",
    "sampling_vectors",
    "extended_sampling_vectors",
    "pair_win_counts",
    "mean_rss",
]

STAR = np.nan
"""The ``*`` pair value of Eq. 6 — stored as NaN, masked by Eq. 7."""

#: Bound on the float64 (B, k, n, n) difference temporary one trace-axis
#: block of the Algorithm 1 broadcast may allocate (see ``_over_pair_diffs``).
_VECTOR_TEMP_BYTES = 16 * 1024 * 1024


def _one_round(rss: np.ndarray) -> np.ndarray:
    """A ``(k, n)`` grouping sampling as a one-round ``(1, k, n)`` stack."""
    rss = np.atleast_2d(np.asarray(rss, dtype=float))
    if rss.ndim != 2:
        raise ValueError(f"rss must be a (k, n) matrix, got shape {rss.shape}")
    return rss[None]


def pair_win_counts(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
    *,
    comparator_eps: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair counts over the common valid instants.

    Returns ``(wins_i, wins_j, valid)`` with shapes ``(P,)`` — instants where
    i's RSS exceeds j's by more than *comparator_eps*, where j exceeds i,
    and how many instants both sensors reported.  Instants where the two
    RSS are within *comparator_eps* count toward neither side (tie).
    """
    rss, pairs = _as_stack(_one_round(rss), pairs, comparator_eps)
    wins_i, wins_j, valid = _over_pair_diffs(rss, pairs, _win_counts, comparator_eps)
    return wins_i[0], wins_j[0], valid[0]


def sampling_vector(rss: np.ndarray, *, comparator_eps: float = 0.0) -> np.ndarray:
    """Basic sampling vector (Algorithm 1 + the Eq. 6 fault fill).

    Parameters
    ----------
    rss : (k, n) grouping-sampling matrix, NaN for missing samples.
    comparator_eps : hardware comparator deadband in dB; RSS pairs within
        it are ties and force the pair value to 0 (flipped).

    Returns
    -------
    (P,) float vector with values in {-1, 0, +1} and NaN for ``*`` pairs.
    The one-round case of :func:`sampling_vectors`.
    """
    return sampling_vectors(_one_round(rss), comparator_eps=comparator_eps)[0]


def extended_sampling_vector(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
    *,
    comparator_eps: float = 0.0,
) -> np.ndarray:
    """Extended (quantitative) sampling vector of Definition 10.

    Each component is ``P(i beats j) - P(j beats i)`` estimated over the
    common valid instants — in ``[-1, 1]``, equal to the basic value at the
    extremes.  Pairs with no common instants get the Eq. 6 fill.  The
    one-round case of :func:`extended_sampling_vectors`.
    """
    return extended_sampling_vectors(_one_round(rss), pairs, comparator_eps=comparator_eps)[0]


def mean_rss(rss: np.ndarray) -> np.ndarray:
    """Per-sensor mean RSS of grouping samplings: the mean over the sample
    axis of a ``(..., k, n)`` array, skipping missing (NaN) samples; NaN
    for a sensor that heard nothing."""
    rss = np.asarray(rss, dtype=float)
    missing = np.isnan(rss)
    counts = np.maximum((~missing).sum(axis=-2), 1)
    sums = np.where(missing, 0.0, rss).sum(axis=-2)
    return np.where(missing.all(axis=-2), np.nan, sums / counts)


def _as_stack(
    rss: np.ndarray, pairs: "tuple[np.ndarray, np.ndarray] | None", comparator_eps: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    if comparator_eps < 0:
        raise ValueError(f"comparator_eps must be non-negative, got {comparator_eps}")
    rss = np.asarray(rss, dtype=float)
    if rss.ndim == 2:
        rss = rss[None]
    if rss.ndim != 3:
        raise ValueError(f"rss must be a (T, k, n) stack, got shape {rss.shape}")
    n = rss.shape[2]
    if n < 2:
        raise ValueError(f"need at least two sensors, got {n}")
    if pairs is None:
        pairs = enumerate_pairs(n)
    return rss, pairs


def _over_pair_diffs(
    rss: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], kernel, comparator_eps: float
) -> tuple:
    """Run *kernel* over the all-pairs RSS differences of a (T, k, n) stack.

    The differences are one broadcast, ``diff[t, w, i, j] = rss[t, w, i] -
    rss[t, w, j]`` (NaN where either sensor missed instant w), so every
    ordered pair is there without a column gather.
    ``kernel(diff, fwd, rev, comparator_eps)`` reduces a (B, k, n, n) block
    over the sample axis, then gathers the P pairs from the flattened
    (n, n) result by the flat indices *fwd* of ``(i, j)`` and *rev* of
    ``(j, i)``, returning (B, P) arrays.  The trace axis runs in blocks
    whose difference temporary stays within ``_VECTOR_TEMP_BYTES``; every
    value is per round, so the blocking cannot change one.
    """
    T, k, n = rss.shape
    i_idx, j_idx = pairs
    fwd = i_idx * n + j_idx
    rev = j_idx * n + i_idx
    step = max(1, _VECTOR_TEMP_BYTES // (8 * k * n * n))
    blocks = [
        kernel(rss[s : s + step, :, :, None] - rss[s : s + step, :, None, :], fwd, rev, comparator_eps)
        for s in range(0, T, step)
    ]
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _win_counts(diff: np.ndarray, fwd: np.ndarray, rev: np.ndarray, eps: float) -> tuple:
    """Kernel: (B, P) instants won by i, won by j, and common to both.

    A tie within *eps* counts toward neither side.  NaN differences
    compare False, so they count as no win and are left out of the
    valid count.
    """
    B = len(diff)
    wins = np.count_nonzero(diff > eps, axis=1).reshape(B, -1)
    valid = np.count_nonzero(~np.isnan(diff), axis=1).reshape(B, -1)
    return np.take(wins, fwd, axis=1), np.take(wins, rev, axis=1), np.take(valid, fwd, axis=1)


def _unanimous_wins(diff: np.ndarray, fwd: np.ndarray, rev: np.ndarray, eps: float) -> tuple:
    """Kernel: the (B, P) Definition 4 values and the no-common-instant mask.

    The NaN-ignoring minimum of ``diff[i, j]`` over the samples exceeds
    *eps* iff i won every common instant.  Since ``b - a`` is exactly
    ``-(a - b)``, the minimum at ``(j, i)`` exceeds *eps* iff j won every
    one (the maximum at ``(i, j)`` is below ``-eps``).  A NaN minimum
    means the pair shared no instant.
    """
    low = np.fmin.reduce(diff, axis=1).reshape(len(diff), -1)
    beats = low > eps
    values = np.take(beats, fwd, axis=1).astype(float) - np.take(beats, rev, axis=1)
    return values, np.isnan(np.take(low, fwd, axis=1))


def _eq6_fill_stack(
    values: np.ndarray,
    rss: np.ndarray,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    no_common: np.ndarray,
) -> np.ndarray:
    """Apply the Eq. 6 fill to the (T, P) pairs *no_common* marks as
    sharing no valid instant, per round of a (T, k, n) stack."""
    if not no_common.any():
        return values
    reported = ~np.isnan(rss).all(axis=1)  # (T, n)
    ri = np.take(reported, i_idx, axis=1)
    rj = np.take(reported, j_idx, axis=1)
    # a reporting sensor beats a silent one (+1 / -1); two silent ones give *
    values = np.where(no_common, np.where(ri | rj, ri.astype(float) - rj, STAR), values)
    # both reported but never simultaneously: fall back to mean comparison
    both = no_common & ri & rj
    if both.any():
        means = mean_rss(rss)  # (T, n)
        delta = means[:, i_idx] - means[:, j_idx]
        values[both] = np.sign(delta[both])
    return values


def sampling_vectors(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
    *,
    comparator_eps: float = 0.0,
) -> np.ndarray:
    """Batched :func:`sampling_vector` over a ``(T, k, n)`` round stack.

    Returns a ``(T, P)`` matrix whose row ``t`` is bit-identical to
    ``sampling_vector(rss[t], ...)`` — every operation is elementwise per
    round, so batching cannot change a single value.  This is the
    Algorithm-1 kernel the trace-level matchers feed from.
    """
    rss, pairs = _as_stack(rss, pairs, comparator_eps)
    values, no_common = _over_pair_diffs(rss, pairs, _unanimous_wins, comparator_eps)
    return _eq6_fill_stack(values, rss, *pairs, no_common)


def extended_sampling_vectors(
    rss: np.ndarray,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
    *,
    comparator_eps: float = 0.0,
) -> np.ndarray:
    """Batched :func:`extended_sampling_vector` over a ``(T, k, n)`` stack."""
    rss, pairs = _as_stack(rss, pairs, comparator_eps)
    wins_i, wins_j, n_valid = _over_pair_diffs(rss, pairs, _win_counts, comparator_eps)
    denom = np.where(n_valid > 0, n_valid, 1)
    values = (wins_i - wins_j) / denom
    return _eq6_fill_stack(values, rss, *pairs, n_valid == 0)
