"""Uncertain boundaries of node pairs (paper §3.2).

From the log-distance path-loss model with Gaussian noise, the locus of
points where two sensors' RSS cannot be distinguished is bounded by two
axisymmetric Apollonius circles whose distance ratio is the constant

    C = exp( ln(10)/(10*beta) * eps  +  1/2 * (ln(10)/(10*beta) * sqrt(2)*sigma)^2 )  > 1

(Eq. 3).  A point p is *certainly* nearer node i than node j only when
``d_i(p) * C <= d_j(p)``; between the two circles the ordering of the pair
is unreliable and the signature value is 0.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.primitives import Circle

__all__ = [
    "uncertainty_constant",
    "effective_uncertainty_constant",
    "apollonius_circle",
    "uncertain_boundary_circles",
    "classify_points_pairwise",
    "classify_distances_pairwise",
    "uncertain_band_halfwidth",
]

CHUNK_PAIRS = 256  # pairs classified per block of classify_points_pairwise


def uncertainty_constant(resolution_dbm: float, path_loss_exponent: float, noise_sigma_dbm: float) -> float:
    """The constant ``C`` of Eq. 3.

    ``C > 1`` whenever the resolution or the noise is non-zero; ``C == 1``
    only in the ideal noiseless, infinitely-fine-resolution case, where the
    uncertain area degenerates to the perpendicular bisector itself.

    Parameters
    ----------
    resolution_dbm:
        Sensing resolution epsilon — the largest RSS difference the hardware
        cannot distinguish (dBm).
    path_loss_exponent:
        beta of the log-distance model (2 free space, 3-4 with reflections).
    noise_sigma_dbm:
        Standard deviation of the Gaussian shadowing term X ~ N(0, sigma^2).
    """
    if resolution_dbm < 0:
        raise ValueError(f"resolution must be non-negative, got {resolution_dbm}")
    if path_loss_exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {path_loss_exponent}")
    if noise_sigma_dbm < 0:
        raise ValueError(f"noise sigma must be non-negative, got {noise_sigma_dbm}")
    a = math.log(10.0) / (10.0 * path_loss_exponent)
    return math.exp(a * resolution_dbm + 0.5 * (a * math.sqrt(2.0) * noise_sigma_dbm) ** 2)


def effective_uncertainty_constant(
    resolution_dbm: float,
    path_loss_exponent: float,
    noise_sigma_dbm: float,
    k: int,
    *,
    capture_prob: float = 0.5,
) -> float:
    """Sampling-statistics-calibrated uncertainty constant.

    Eq. 3's expectation-based ``C`` describes where a *single expected*
    comparison is ambiguous; a k-sample grouping sampling keeps flipping
    much farther out (one discordant sample out of k suffices).  This
    variant returns the distance ratio at which a k-sample group still
    shows the pair as *flipped* with probability ``capture_prob``:

        C_eff = 10^( (eps + sqrt(2)*sigma * Phi^-1(q^(1/k))) / (10*beta) ),
        q = 1 - capture_prob,

    i.e. the ratio where the probability that all k samples agree (each
    sample exceeding the comparator deadband eps) is ``1 - capture_prob``.
    It preserves every qualitative dependency of Eq. 3 — grows with eps and
    sigma, shrinks with beta — adds the k-dependence real groups exhibit,
    and reduces to a hair above 1 in the noiseless fine-resolution limit.
    Face maps built with it line up with what sampling vectors actually
    report, which is what matters for matching accuracy.
    """
    from scipy.special import ndtri

    if resolution_dbm < 0:
        raise ValueError(f"resolution must be non-negative, got {resolution_dbm}")
    if path_loss_exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {path_loss_exponent}")
    if noise_sigma_dbm < 0:
        raise ValueError(f"noise sigma must be non-negative, got {noise_sigma_dbm}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0.0 < capture_prob < 1.0):
        raise ValueError(f"capture_prob must be in (0, 1), got {capture_prob}")
    q = 1.0 - capture_prob
    z = float(ndtri(q ** (1.0 / k)))
    delta_mu = resolution_dbm + math.sqrt(2.0) * noise_sigma_dbm * z
    c = 10.0 ** (max(delta_mu, 0.0) / (10.0 * path_loss_exponent))
    return max(c, 1.0 + 1e-9)


def apollonius_circle(p_near: np.ndarray, p_far: np.ndarray, ratio: float) -> Circle:
    """Apollonius circle ``{ x : |x - p_near| / |x - p_far| = ratio }``.

    For ``ratio < 1`` the circle encloses *p_near*; for ``ratio > 1`` it
    encloses *p_far*.  ``ratio == 1`` is the perpendicular bisector (a
    degenerate "circle of infinite radius") and is rejected.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    if math.isclose(ratio, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("ratio == 1 degenerates to the perpendicular bisector, not a circle")
    a = np.asarray(p_near, dtype=float)
    b = np.asarray(p_far, dtype=float)
    k2 = ratio * ratio
    center = (a - k2 * b) / (1.0 - k2)
    radius = ratio * float(np.hypot(*(a - b))) / abs(k2 - 1.0)
    return Circle(float(center[0]), float(center[1]), radius)


def uncertain_boundary_circles(p_i: np.ndarray, p_j: np.ndarray, c: float) -> tuple[Circle, Circle]:
    """The two axisymmetric boundary circles of a node pair (Definition 2).

    Returns ``(near_i, near_j)`` where ``near_i`` is the boundary
    ``d_i / d_j = 1/C`` (the target is certainly nearer ``n_i`` inside it)
    and ``near_j`` is ``d_i / d_j = C``.
    """
    if c <= 1.0:
        raise ValueError(f"uncertainty constant must exceed 1, got {c}")
    near_i = apollonius_circle(p_i, p_j, 1.0 / c)
    near_j = apollonius_circle(p_i, p_j, c)
    return near_i, near_j


def classify_distances_pairwise(
    d_i: np.ndarray, d_j: np.ndarray, c: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Signature values from pre-computed distances.

    +1 where ``C*d_i <= d_j`` (certainly nearer the lower-ID node),
    -1 where ``d_i >= C*d_j`` (certainly nearer the higher-ID node),
     0 inside the uncertain band.
    """
    if c < 1.0:
        raise ValueError(f"uncertainty constant must be >= 1, got {c}")
    d_i = np.asarray(d_i, dtype=float)
    d_j = np.asarray(d_j, dtype=float)
    if out is None:
        out = np.zeros(np.broadcast_shapes(d_i.shape, d_j.shape), dtype=np.int8)
    else:
        out[...] = 0
    out[c * d_i <= d_j] = 1
    out[d_i >= c * d_j] = -1
    return out


def classify_points_pairwise(
    points: np.ndarray,
    nodes: np.ndarray,
    c: float,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    sensing_range: float | None = None,
) -> np.ndarray:
    """Signature matrix for *points* against all node pairs.

    Parameters
    ----------
    points : (M, 2)
    nodes : (n, 2)
    c : uncertainty constant (>= 1)
    pairs : optional pre-computed ``(i_idx, j_idx)`` in canonical order
    sensing_range : when given, the signature uses the same semantics as
        the Eq. 6 fault fill — a node farther than the range from the
        point does not hear the target, so a pair with exactly one
        in-range node is +1/-1 toward the hearing node regardless of the
        uncertain band, and a pair with neither node in range is 0 (its
        sampling value is ``*`` and masked at match time anyway).

    Pairs are processed :data:`CHUNK_PAIRS` at a time, bounding peak
    memory at roughly ``M * CHUNK_PAIRS`` bytes.

    Returns
    -------
    (M, P) int8 matrix of {-1, 0, +1}, P = C(n, 2).
    """
    from repro.geometry.primitives import enumerate_pairs, pairwise_distances

    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if pairs is None:
        pairs = enumerate_pairs(len(nodes))
    i_idx, j_idx = pairs
    dist = pairwise_distances(points, nodes)  # (M, n)
    n_pairs = len(i_idx)
    sig = np.empty((len(points), n_pairs), dtype=np.int8)
    for start in range(0, n_pairs, CHUNK_PAIRS):
        stop = min(start + CHUNK_PAIRS, n_pairs)
        di = dist[:, i_idx[start:stop]]
        dj = dist[:, j_idx[start:stop]]
        block = sig[:, start:stop]
        classify_distances_pairwise(di, dj, c, out=block)
        if sensing_range is not None:
            in_i = di <= sensing_range
            in_j = dj <= sensing_range
            block[in_i & ~in_j] = 1
            block[~in_i & in_j] = -1
            block[~in_i & ~in_j] = 0
    return sig


def uncertain_band_halfwidth(pair_separation: float, c: float) -> float:
    """Half-width of the uncertain band where it crosses the pair's axis.

    On the segment joining the two nodes (length ``2d``), the band spans
    from the ``d_i/d_j = 1/C`` crossing to the ``d_i/d_j = C`` crossing;
    this returns half that span — a convenient scalar for how "thick" the
    unreliable region is, used by tests and by the Fig. 3 analysis of when
    certain faces vanish.
    """
    if pair_separation <= 0:
        raise ValueError(f"pair separation must be positive, got {pair_separation}")
    if c < 1.0:
        raise ValueError(f"uncertainty constant must be >= 1, got {c}")
    # On the axis, with nodes at 0 and L: d_i = x, d_j = L - x.
    # d_i/d_j = 1/C  =>  x = L / (1 + C); d_i/d_j = C  =>  x = L*C / (1 + C).
    length = pair_separation
    x_lo = length / (1.0 + c)
    x_hi = length * c / (1.0 + c)
    return 0.5 * (x_hi - x_lo)
