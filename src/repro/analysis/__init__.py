"""Performance analysis (paper §5).

Closed-form results for choosing the grouping-sampling count k (§5.1), the
inter-face error expectation and worst-case bound (§5.2), Monte-Carlo
validators for both, and the tracking-error metrics used throughout the
evaluation.
"""

from repro.analysis.sampling_times import (
    miss_probability,
    all_flips_probability,
    required_sampling_times,
    simulate_flip_capture,
)
from repro.analysis.error_bounds import (
    expected_interface_error,
    worst_case_error_bound,
    simulate_interface_error,
)
from repro.analysis.metrics import (
    TrackingErrorSummary,
    summarize_errors,
    compare_trackers,
)
from repro.analysis.coverage import (
    CoverageReport,
    coverage_field,
    coverage_report,
    density_tradeoff,
)
from repro.analysis.energy import EnergyModel, project_lifetime
from repro.analysis.statistics import (
    bootstrap_mean_ci,
    PairedComparison,
    paired_comparison,
)

__all__ = [
    "miss_probability",
    "all_flips_probability",
    "required_sampling_times",
    "simulate_flip_capture",
    "expected_interface_error",
    "worst_case_error_bound",
    "simulate_interface_error",
    "TrackingErrorSummary",
    "summarize_errors",
    "compare_trackers",
    "CoverageReport",
    "coverage_field",
    "coverage_report",
    "density_tradeoff",
    "bootstrap_mean_ci",
    "PairedComparison",
    "paired_comparison",
    "EnergyModel",
    "project_lifetime",
]
