"""Statistical comparison of trackers.

Figure-level claims ("FTTT < PM") need more than two means: these helpers
provide bootstrap confidence intervals on mean tracking error, a paired
comparison over shared worlds (the strongest design — both trackers see
identical observations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import ensure_rng

__all__ = [
    "bootstrap_mean_ci",
    "PairedComparison",
    "paired_comparison",
]


def bootstrap_mean_ci(
    values: np.ndarray,
    *,
    rng: "np.random.Generator | int | None" = 0,
) -> tuple[float, float, float]:
    """(mean, lo, hi) 95 % percentile-bootstrap CI for the mean of *values*,
    from 5000 resamples."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError("need a 1-D sample of at least two values")
    rng = ensure_rng(rng)
    idx = rng.integers(0, len(values), size=(5000, len(values)))
    boot_means = values[idx].mean(axis=1)
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(boot_means, [alpha, 1.0 - alpha])
    return float(values.mean()), float(lo), float(hi)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired per-world tracker comparison."""

    mean_diff: float  # mean(b - a); positive = a better
    ci_lo: float
    ci_hi: float
    p_value: float  # paired t-test, two-sided
    n_pairs: int
    win_rate_a: float  # fraction of worlds where a beat b


def paired_comparison(
    errors_a: np.ndarray,
    errors_b: np.ndarray,
    *,
    rng: "np.random.Generator | int | None" = 0,
) -> PairedComparison:
    """Compare per-world mean errors of two trackers on *shared* worlds.

    Positive ``mean_diff`` means tracker *a* has lower error (b − a > 0).
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D with equal length")
    if len(a) < 2:
        raise ValueError("need at least two paired worlds")
    diff = b - a
    _, lo, hi = bootstrap_mean_ci(diff, rng=rng)
    from scipy import stats as sps

    t = sps.ttest_rel(b, a)
    return PairedComparison(
        mean_diff=float(diff.mean()),
        ci_lo=lo,
        ci_hi=hi,
        p_value=float(t.pvalue),
        n_pairs=len(a),
        win_rate_a=float((a < b).mean()),
    )
