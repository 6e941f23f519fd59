"""SEC51 — determination of grouping-sampling times (paper §5.1).

Regenerates the section's quantitative content: the required-k table over
network densities and confidence levels, the worked example (20 sensors,
99 % confidence -> k = 16), and a Monte-Carlo validation of the capture
probability the closed form predicts.
"""

from repro.analysis.sampling_times import (
    all_flips_probability,
    required_sampling_times,
    simulate_flip_capture,
)

from conftest import emit

CONFIDENCES = (0.90, 0.99, 0.999)
SENSOR_COUNTS = (5, 10, 20, 40)


def test_sec51_required_k_table(benchmark, results_dir):
    def regenerate():
        return {
            n: [required_sampling_times(n * (n - 1) // 2, c) for c in CONFIDENCES]
            for n in SENSOR_COUNTS
        }

    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = ["sensors  pairs  " + "".join(f"  k@{c:g}" for c in CONFIDENCES)]
    for n in SENSOR_COUNTS:
        pairs = n * (n - 1) // 2
        lines.append(f"{n:7d}  {pairs:5d}  " + "".join(f"{k:7d}" for k in table[n]))
    lines.append("")
    lines.append(
        f"paper's worked example: 20 sensors @ 99% -> k = {table[20][1]} (paper: 16)"
    )
    emit("SEC 5.1 — required grouping-sampling times", lines)
    (results_dir / "sec51.csv").write_text(
        "sensors," + ",".join(f"k_at_{c}" for c in CONFIDENCES) + "\n"
        + "\n".join(f"{n}," + ",".join(map(str, table[n])) for n in SENSOR_COUNTS)
    )

    # the paper's exact numeric claim
    assert table[20][1] == 16
    # logarithmic growth: quadrupling sensors (16x pairs) adds few samples
    for ci in range(len(CONFIDENCES)):
        assert table[40][ci] - table[5][ci] <= 8
    # monotone in confidence
    for n in SENSOR_COUNTS:
        assert table[n][0] <= table[n][1] <= table[n][2]


def test_sec51_monte_carlo_validation(benchmark):
    k, n_pairs = 5, 45  # ten sensors

    mc = benchmark.pedantic(
        lambda: simulate_flip_capture(k, n_pairs, n_trials=150_000, rng=0),
        rounds=1,
        iterations=1,
    )
    closed_form = all_flips_probability(k, n_pairs)
    exact_independent = (1 - 0.5 ** (k - 1)) ** n_pairs
    emit(
        "SEC 5.1 — Monte-Carlo validation (k=5, N=45 pairs)",
        [
            f"closed form (paper, exponent N-1): {closed_form:.4f}",
            f"independent-pairs exact (exp. N):  {exact_independent:.4f}",
            f"Monte-Carlo estimate:              {mc:.4f}",
        ],
    )
    # the MC truth sits at the independent-pairs value, within a (1-f)
    # factor of the paper's closed form
    assert exact_independent - 0.01 <= mc <= closed_form + 0.01
