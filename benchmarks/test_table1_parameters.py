"""TAB1 — system parameters and settings (paper Table 1).

Table 1 is the experiment contract: every harness in this repository
starts from it.  This bench prints the encoded table, asserts it matches
the paper verbatim, and times the full scenario construction (deployment
+ channel + trace + both face maps) at the table's default operating
point — the setup cost every simulated experiment pays.
"""

from repro.config import PaperDefaults, SimulationConfig
from repro.sim.scenario import make_scenario

from conftest import emit


def test_table1_defaults_and_setup(benchmark, results_dir):
    p = PaperDefaults()
    rows = [
        ("Field Size", f"{p.field_size_m:.0f} x {p.field_size_m:.0f} m^2", "100 x 100 m^2"),
        ("Noise Model Parameter", f"beta={p.path_loss_exponent:.0f}, sigma_X={p.noise_sigma_dbm:.0f}", "beta=4, sigma=6"),
        ("Number of Sensor Nodes", f"{p.n_sensors_min} ~ {p.n_sensors_max}", "5 ~ 40"),
        ("Sensing Range (R)", f"{p.sensing_range_m:.0f} m", "40 m"),
        ("Sensing Resolution (eps)", f"{p.resolution_min_dbm} ~ {p.resolution_max_dbm} dBm", "0.5 ~ 3 dBm"),
        ("Sampling Rate", f"{p.sampling_rate_hz:.0f} Hz", "10 Hz"),
        ("Target Velocity", f"{p.target_speed_min_mps:.0f} ~ {p.target_speed_max_mps:.0f} m/s", "1 ~ 5 m/s"),
        ("Sampling Times", f"{p.sampling_times_min} ~ {p.sampling_times_max}", "3 ~ 9"),
    ]
    emit(
        "TABLE 1 — system parameters (encoded vs paper)",
        [f"{name:28s} {ours:22s} (paper: {theirs})" for name, ours, theirs in rows],
    )
    (results_dir / "table1.csv").write_text(
        "parameter,encoded,paper\n" + "\n".join(f"{a},{b},{c}" for a, b, c in rows)
    )

    # verbatim checks
    assert p.field_size_m == 100.0
    assert p.path_loss_exponent == 4.0
    assert p.noise_sigma_dbm == 6.0
    assert (p.n_sensors_min, p.n_sensors_max) == (5, 40)
    assert p.sensing_range_m == 40.0
    assert (p.resolution_min_dbm, p.resolution_max_dbm) == (0.5, 3.0)
    assert p.sampling_rate_hz == 10.0
    assert (p.target_speed_min_mps, p.target_speed_max_mps) == (1.0, 5.0)
    assert (p.sampling_times_min, p.sampling_times_max) == (3, 9)
    assert p.sim_duration_s == 60.0

    # timed kernel: full world construction at the defaults
    def build_world():
        scenario = make_scenario(SimulationConfig(), seed=0)
        _ = scenario.face_map
        _ = scenario.certain_map
        return scenario

    benchmark.pedantic(build_world, rounds=3, iterations=1)
