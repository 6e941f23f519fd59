"""SEC52 — tracking-error analysis (paper §5.2, Appendix II, Eq. 10).

Regenerates: the inter-face error expectation E_N = N * f against Monte
Carlo, and the worst-case bound's scaling in k, density, and sensing
range — the three dependencies Eq. 10 calls out.  An empirical column
confirms the *measured* tracking error moves the way the bound says.
"""

import pytest

from repro.analysis.error_bounds import (
    expected_interface_error,
    simulate_interface_error,
    worst_case_error_bound,
)
from repro.config import GridConfig, SimulationConfig
from repro.sim.experiments import replicate_mean_error

from conftest import emit


def test_sec52_interface_error_closed_form(benchmark, results_dir):
    ks = (2, 3, 5, 7, 9)
    n_pairs = 45

    def regenerate():
        return [
            (k, expected_interface_error(k, n_pairs), simulate_interface_error(k, n_pairs, 100_000, rng=k))
            for k in ks
        ]

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    lines = ["  k   E_N = N*f   Monte-Carlo"]
    for k, closed, mc in rows:
        lines.append(f"{k:3d}   {closed:9.4f}   {mc:11.4f}")
    emit("SEC 5.2 — inter-face error expectation (N = 45 pairs)", lines)
    (results_dir / "sec52_interface.csv").write_text(
        "k,closed_form,monte_carlo\n" + "\n".join(f"{k},{c:.5f},{m:.5f}" for k, c, m in rows)
    )
    for k, closed, mc in rows:
        assert mc == pytest.approx(closed, rel=0.08, abs=0.01)


def test_sec52_bound_scalings(benchmark):
    def regenerate():
        base = worst_case_error_bound(5, 1e-3, 40.0)
        return {
            "base (k=5, rho=1e-3, R=40)": base,
            "k 5 -> 7": worst_case_error_bound(7, 1e-3, 40.0),
            "rho x2": worst_case_error_bound(5, 2e-3, 40.0),
            "R x2": worst_case_error_bound(5, 1e-3, 80.0),
        }

    bounds = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    emit(
        "SEC 5.2 — Eq. 10 worst-case bound scalings",
        [f"{name:28s} {v:8.4f}" for name, v in bounds.items()],
    )
    base = bounds["base (k=5, rho=1e-3, R=40)"]
    # 2^{-(k-1)/2}: +2 samples halves the bound
    assert bounds["k 5 -> 7"] == pytest.approx(base / 2, rel=1e-6)
    # 1/rho and 1/R scalings
    assert bounds["rho x2"] == pytest.approx(base / 2, rel=0.15)
    assert bounds["R x2"] == pytest.approx(base / 2, rel=0.15)


def test_sec52_empirical_density_scaling(benchmark):
    """The measured error falls when density rises — the bound's direction."""
    cfg = SimulationConfig(duration_s=20.0, grid=GridConfig(cell_size_m=2.5))

    def regenerate():
        out = {}
        for n in (8, 32):
            recs = replicate_mean_error(cfg.with_(n_sensors=n), ["fttt"], n_reps=3, seed=60)
            out[n] = recs[0].mean_error
        return out

    errs = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    emit(
        "SEC 5.2 — empirical check: density up, error down",
        [f"n={n}: mean error {e:.2f} m" for n, e in errs.items()],
    )
    assert errs[32] < errs[8]
