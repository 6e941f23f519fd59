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

from repro.geometry.primitives import Circle, pair_row_blocks

__all__ = [
    "uncertainty_constant",
    "effective_uncertainty_constant",
    "apollonius_circle",
    "uncertain_boundary_circles",
    "classify_points_pairwise",
    "uncertain_band_halfwidth",
]

#: Stand-in distance of a node out of sensing range; finite, so that
#: ``2 * _FAR`` still compares above it (see classify_points_pairwise).
_FAR = 1e300


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
) -> float:
    """Sampling-statistics-calibrated uncertainty constant.

    Eq. 3's expectation-based ``C`` describes where a *single expected*
    comparison is ambiguous; a k-sample grouping sampling keeps flipping
    much farther out (one discordant sample out of k suffices).  This
    variant returns the distance ratio at which a k-sample group still
    shows the pair as *flipped* with probability one half:

        C_eff = 10^( (eps + sqrt(2)*sigma * Phi^-1(0.5^(1/k))) / (10*beta) ),

    i.e. the ratio where the probability that all k samples agree (each
    sample exceeding the comparator deadband eps) is one half.
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
    z = float(ndtri(0.5 ** (1.0 / k)))
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


def classify_points_pairwise(
    points: np.ndarray,
    nodes: np.ndarray,
    c: float,
    *,
    sensing_range: float | None = None,
) -> np.ndarray:
    """Signature matrix for *points* against all node pairs.

    +1 where ``C*d_i <= d_j`` (certainly nearer the lower-ID node),
    -1 where ``d_i >= C*d_j`` (certainly nearer the higher-ID node; this
    wins when both hold, which needs ``d_i == d_j`` at ``C == 1`` or a
    point on two coincident nodes), 0 inside the uncertain band.

    Parameters
    ----------
    points : (M, 2)
    nodes : (n, 2)
    c : uncertainty constant (>= 1)
    sensing_range : when given, the signature uses the same semantics as
        the Eq. 6 fault fill — a node farther than the range from the
        point does not hear the target, so a pair with exactly one
        in-range node is +1/-1 toward the hearing node regardless of the
        uncertain band, and a pair with neither node in range is 0 (its
        sampling value is ``*`` and masked at match time anyway).

    The matrix is filled by :func:`~repro.geometry.primitives.pair_row_blocks`:
    per block of cells and first node ``i``, pairs ``(i, j > i)`` are one
    contiguous column slice, classified from column slices of the
    distance block, so peak memory beyond the result is a few
    ``(CELL_BLOCK, n)`` arrays.

    Returns
    -------
    (M, P) int8 matrix of {-1, 0, +1}, P = C(n, 2).
    """
    if c < 1.0:
        raise ValueError(f"uncertainty constant must be >= 1, got {c}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    n = len(nodes)
    sig = np.empty((len(points), n * (n - 1) // 2), dtype=np.int8)
    for d, rows in pair_row_blocks(points, nodes, sig):
        cd = c * d
        if sensing_range is not None:
            # A node that does not hear the point stands at distance FAR and
            # scaled distance 2*FAR.  For every c >= 1 the two band tests
            # below then give the Eq. 6 override by themselves: only i hears
            # -> d_i >= 2*FAR fails, c*d_i <= FAR holds: +1; only j hears ->
            # FAR >= c*d_j holds: -1; neither -> FAR >= 2*FAR and
            # 2*FAR <= FAR both fail: 0.  Pairs both nodes hear keep their
            # own distances, so the -1-over-+1 precedence is unchanged.
            heard = d <= sensing_range
            d = np.where(heard, d, _FAR)
            cd = np.where(heard, cd, 2.0 * _FAR)
        for i, row in enumerate(rows):
            nearer_j = d[:, i : i + 1] >= cd[:, i + 1 :]
            nearer_i = cd[:, i : i + 1] <= d[:, i + 1 :]
            # where(nearer_j, -1, nearer_i), written once into the slice
            np.subtract(nearer_i > nearer_j, nearer_j, out=row, dtype=np.int8)
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
