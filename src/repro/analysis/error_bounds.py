"""Tracking-error analysis (paper §5.2, Appendix II).

Inter-face error: when the target sits inside the intersection of N pairs'
uncertain areas and M of them are missed by the grouping sampling, the
matched face is M vector-units away; Appendix II shows the expectation is
exactly

    E_N = N * f,          f = (1/2)^(k-1).

The worst-case geographic error combines the inter-face expectation with
the O(n^4) face count over the pi R^2 sensing disc:

    E = O( 1 / (2^((k-1)/2) * rho * R) ).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.sampling_times import miss_probability
from repro.rng import ensure_rng

__all__ = [
    "expected_interface_error",
    "worst_case_error_bound",
    "simulate_interface_error",
]


def expected_interface_error(k: int, n_pairs: int) -> float:
    """E_N = N * f — expected vector distance to the true face (Appendix II)."""
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be non-negative, got {n_pairs}")
    return n_pairs * miss_probability(k)


def worst_case_error_bound(
    k: int,
    density_per_m2: float,
    sensing_range_m: float,
) -> float:
    """Worst-case tracking error shape of Eq. 10.

    ``E < sqrt( C(n,2) * f * pi R^2 / (xi * n^4) )`` with
    ``n = pi R^2 rho`` sensors hearing the target.  The constant ``xi``
    absorbs face-geometry factors and is taken as 1; only the scaling
    ``1 / (2^((k-1)/2) * rho * R)`` is meaningful, which is what the
    reproduction checks.
    """
    if density_per_m2 <= 0 or sensing_range_m <= 0:
        raise ValueError("density and sensing range must be positive")
    n = math.pi * sensing_range_m**2 * density_per_m2
    if n < 2:
        raise ValueError(
            f"fewer than two sensors in sensing range on average (n={n:.2f}); "
            "the bound is vacuous"
        )
    n_pairs = n * (n - 1) / 2.0
    f = miss_probability(k)
    area = math.pi * sensing_range_m**2
    return math.sqrt(n_pairs * f * area / n**4)


def simulate_interface_error(
    k: int,
    n_pairs: int,
    n_trials: int = 10_000,
    rng: "np.random.Generator | int | None" = None,
) -> float:
    """Monte-Carlo mean vector error when N pairs are simultaneously uncertain.

    Each pair is missed (reported ordinal instead of flipped) independently
    with probability f; a missed pair displaces the match by one vector
    unit.  Returns the mean total displacement — Appendix II's E_N.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be non-negative, got {n_pairs}")
    if n_pairs == 0:
        return 0.0
    rng = ensure_rng(rng)
    f = miss_probability(k)
    misses = rng.random((n_trials, n_pairs)) < f
    return float(misses.sum(axis=1).mean())
