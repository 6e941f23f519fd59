"""PERF — localization throughput of every tracker.

Operational sizing numbers: how many localization rounds per second each
tracker sustains at Table-1 scale, and how the FTTT pipeline's stages
split the budget (vector construction vs matching).  The paper's 10 Hz
sampling rate implies 2 rounds/s at k = 5 — every tracker here clears
that by orders of magnitude, which is the headroom claim.
"""

import time

from repro.config import GridConfig, SimulationConfig
from repro.core.vectors import sampling_vector
from repro.sim.runner import generate_batches
from repro.sim.scenario import make_scenario

from conftest import emit

CFG = SimulationConfig(n_sensors=20, duration_s=30.0, grid=GridConfig(cell_size_m=2.5))
TRACKERS = ("fttt", "fttt-exhaustive", "fttt-extended", "direct-mle", "particle", "kalman")


def test_localization_throughput(benchmark, results_dir):
    scenario = make_scenario(CFG, seed=33)
    _ = scenario.face_map
    _ = scenario.certain_map
    batches = generate_batches(scenario, 34)

    def measure():
        rates = {}
        for name in TRACKERS:
            tracker = scenario.make_tracker(name)
            tracker.reset()
            t0 = time.perf_counter()
            tracker.track(batches)
            elapsed = time.perf_counter() - t0
            rates[name] = len(batches) / elapsed
        # pipeline split for fttt
        t0 = time.perf_counter()
        for b in batches:
            sampling_vector(b.rss, comparator_eps=CFG.resolution_dbm)
        t_vec = time.perf_counter() - t0
        return rates, t_vec / len(batches)

    rates, vec_per_round = benchmark.pedantic(measure, rounds=1, iterations=1)

    required = CFG.sampling_rate_hz / CFG.sampling_times  # rounds/s of the paper
    lines = [f"required by the paper's cadence: {required:.1f} rounds/s"]
    for name in sorted(rates, key=lambda n: -rates[n]):
        lines.append(f"{name:16s} {rates[name]:10.0f} rounds/s  ({rates[name]/required:8.0f}x headroom)")
    lines.append(f"fttt vector construction alone: {vec_per_round*1e6:.0f} us/round")
    emit("PERF — tracker throughput at n=20, k=5 (single core)", lines)
    (results_dir / "throughput.csv").write_text(
        "tracker,rounds_per_s\n" + "\n".join(f"{n},{rates[n]:.1f}" for n in rates)
    )

    # every tracker clears the real-time requirement comfortably
    for name, rate in rates.items():
        assert rate > 10 * required, name
    # the exhaustive tracker now localizes the whole trace through the
    # batched GEMM kernel (see benchmarks/test_perf_kernels.py), so it can
    # outrun the sequential heuristic at this modest face count; the
    # heuristic's per-round advantage at large face counts is measured in
    # test_alg_complexity
    assert rates["fttt"] > rates["fttt-exhaustive"] * 0.05
