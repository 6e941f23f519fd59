"""Statistical comparison of trackers.

Figure-level claims ("FTTT < PM") need more than two means: these helpers
provide bootstrap confidence intervals on mean tracking error, a paired
comparison over shared worlds (the strongest design — both trackers see
identical observations), Welch's t-test for unpaired runs, and a
replication-count advisor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from repro.rng import ensure_rng

__all__ = [
    "bootstrap_mean_ci",
    "PairedComparison",
    "paired_comparison",
    "welch_test",
    "required_replications",
]


def bootstrap_mean_ci(
    values: np.ndarray,
    *,
    confidence: float = 0.95,
    n_boot: int = 5000,
    rng: "np.random.Generator | int | None" = 0,
) -> tuple[float, float, float]:
    """(mean, lo, hi) percentile-bootstrap CI for the mean of *values*."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError("need a 1-D sample of at least two values")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng = ensure_rng(rng)
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    boot_means = values[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(boot_means, [alpha, 1.0 - alpha])
    return float(values.mean()), float(lo), float(hi)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired per-world tracker comparison."""

    mean_diff: float  # mean(b - a); negative = a better
    ci_lo: float
    ci_hi: float
    p_value: float  # paired t-test, two-sided
    n_pairs: int
    win_rate_a: float  # fraction of worlds where a beat b

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    @property
    def a_is_better(self) -> bool:
        return self.mean_diff > 0 and self.significant


def paired_comparison(
    errors_a: np.ndarray,
    errors_b: np.ndarray,
    *,
    confidence: float = 0.95,
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
    _, lo, hi = bootstrap_mean_ci(diff, confidence=confidence, rng=rng)
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


def welch_test(sample_a: np.ndarray, sample_b: np.ndarray) -> tuple[float, float]:
    """(t, p) of Welch's unequal-variance t-test (unpaired runs)."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least two values per sample")
    from scipy import stats as sps

    res = sps.ttest_ind(a, b, equal_var=False)
    return float(res.statistic), float(res.pvalue)


def required_replications(
    pilot_values: np.ndarray,
    *,
    target_halfwidth: float,
    confidence: float = 0.95,
) -> int:
    """How many replications shrink the mean's CI half-width to the target.

    Uses the pilot sample's variance with the normal approximation —
    the standard sample-size formula ``n = (z * s / h)^2``.
    """
    values = np.asarray(pilot_values, dtype=float)
    if len(values) < 2:
        raise ValueError("need a pilot sample of at least two values")
    if target_halfwidth <= 0:
        raise ValueError(f"target half-width must be positive, got {target_halfwidth}")
    z = ndtri(0.5 + confidence / 2.0)
    s = values.std(ddof=1)
    n = int(np.ceil((z * s / target_halfwidth) ** 2))
    return max(n, 2)
