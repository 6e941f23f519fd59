"""ABLATIONS — the design choices DESIGN.md calls out, isolated.

Four studies on identical worlds (common random numbers):

1. uncertainty constant: the paper's Eq. 3 expectation form vs the
   sampling-calibrated form the scenarios default to;
2. matcher: Algorithm 2 verbatim (1-hop) vs the shipped 2-hop climb vs
   exhaustive scanning;
3. extended matching: qualitative vs expected-value (soft) signatures;
4. noise structure: i.i.d. (the paper's assumption) vs temporally
   correlated vs common-mode shadowing at equal power.
"""

from repro.config import GridConfig, SimulationConfig
from repro.sim.ablations import (
    ablate_matcher_hops,
    ablate_noise_structure,
    ablate_soft_signatures,
    ablate_uncertainty_constant,
)

from conftest import emit

CFG = SimulationConfig(duration_s=30.0, grid=GridConfig(cell_size_m=2.5))
N_REPS = 4


def _print(title, out, results_dir, name):
    keys = [k for k in out if not k.endswith("/std")]
    lines = [f"{k:24s} mean={out[k]:6.2f}  std={out[k + '/std']:5.2f}" for k in keys]
    emit(title, lines)
    (results_dir / f"{name}.csv").write_text(
        "variant,mean_error,std\n"
        + "\n".join(f"{k},{out[k]:.3f},{out[k + '/std']:.3f}" for k in keys)
    )


def test_ablation_uncertainty_constant(benchmark, results_dir):
    out = benchmark.pedantic(
        lambda: ablate_uncertainty_constant(CFG, n_reps=N_REPS, seed=0), rounds=1, iterations=1
    )
    _print("ABLATION — Eq. 3 constant vs sampling-calibrated constant", out, results_dir, "ablation_c")
    # calibration is why the face map matches what groups actually report
    assert out["calibrated"] < out["paper"]


def test_ablation_matcher_hops(benchmark, results_dir):
    cfg = CFG.with_(n_sensors=20)
    out = benchmark.pedantic(
        lambda: ablate_matcher_hops(cfg, n_reps=N_REPS, seed=1), rounds=1, iterations=1
    )
    _print("ABLATION — matcher: 1-hop vs 2-hop vs exhaustive (n=20)", out, results_dir, "ablation_hops")
    # 2-hop recovers exhaustive accuracy; 1-hop may trail
    assert out["hops=2"] <= out["exhaustive"] * 1.15
    assert out["hops=2"] <= out["hops=1"] * 1.05


def test_ablation_soft_signatures(benchmark, results_dir):
    # pooled over more worlds: the soft-vs-hard gap is consistent but
    # smaller than per-world variance
    out = benchmark.pedantic(
        lambda: ablate_soft_signatures(CFG, n_reps=8, seed=0), rounds=1, iterations=1
    )
    _print(
        "ABLATION — extended vectors vs qualitative / expected-value signatures",
        out,
        results_dir,
        "ablation_soft",
    )
    # quantitative vectors need quantitative signatures to pay off
    assert out["extended/soft-sig"] < out["extended/hard-sig"]


def test_ablation_noise_structure(benchmark, results_dir):
    out = benchmark.pedantic(
        lambda: ablate_noise_structure(CFG, n_reps=N_REPS, seed=3), rounds=1, iterations=1
    )
    _print(
        "ABLATION — noise structure at equal power (sigma = 6 dB)",
        out,
        results_dir,
        "ablation_noise",
    )
    # temporal correlation starves flip capture
    assert out["temporal rho=0.9"] > out["iid"]
    # common-mode largely cancels in pairwise comparisons: no blow-up
    assert out["common-mode a=0.7"] < out["temporal rho=0.9"]
