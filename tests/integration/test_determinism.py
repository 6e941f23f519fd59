"""Cross-cutting determinism audit.

Every stochastic path in the library must be exactly reproducible from its
seeds — the property all figure regeneration rests on.  These tests pin it
across subsystems in one place.
"""

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig

CFG = SimulationConfig(n_sensors=8, duration_s=8.0, grid=GridConfig(cell_size_m=4.0))


class TestTrackerDeterminism:
    @pytest.mark.parametrize("name", ["fttt", "fttt-extended", "pm", "direct-mle", "particle", "kalman"])
    def test_identical_runs(self, name):
        from repro.sim.runner import run_tracking
        from repro.sim.scenario import make_scenario

        outs = []
        for _ in range(2):
            scenario = make_scenario(CFG.with_(duration_s=3.0), seed=5)  # 6 rounds
            tracker = scenario.make_tracker(name)
            outs.append(run_tracking(scenario, tracker, 6))
        assert np.array_equal(outs[0].positions, outs[1].positions)
        assert np.array_equal(outs[0].truth, outs[1].truth)


class TestHarnessDeterminism:
    def test_replicated_sweep(self):
        from repro.sim.experiments import replicate_mean_error

        a = replicate_mean_error(CFG, ["fttt"], n_reps=2, seed=3)
        b = replicate_mean_error(CFG, ["fttt"], n_reps=2, seed=3)
        assert a[0].mean_error == b[0].mean_error
        assert a[0].per_rep_means == b[0].per_rep_means

    def test_model_mode(self):
        from repro.geometry.faces import build_face_map
        from repro.geometry.grid import Grid
        from repro.network.deployment import random_deployment
        from repro.sim.modelmode import ModelSampler, run_model_tracking

        nodes = random_deployment(6, 60.0, 1, min_separation=5.0)
        fm = build_face_map(nodes, Grid.square(60.0, 4.0), 1.5)
        sampler = ModelSampler(nodes, 1.5, k=5)
        times = np.arange(10) * 0.5
        pos = np.column_stack([10 + times, np.full_like(times, 30.0)])
        a = run_model_tracking(fm, sampler, pos, times, 7)
        b = run_model_tracking(fm, sampler, pos, times, 7)
        assert np.array_equal(a.positions, b.positions)

    def test_outdoor_testbed(self):
        from repro.testbed.outdoor import build_outdoor_system

        a = build_outdoor_system(seed=2).run(rng=3)
        b = build_outdoor_system(seed=2).run(rng=3)
        assert np.array_equal(a.positions, b.positions)

    def test_ablations(self):
        from repro.sim.ablations import ablate_noise_structure

        assert ablate_noise_structure(CFG, n_reps=1, seed=9) == ablate_noise_structure(
            CFG, n_reps=1, seed=9
        )

    def test_fault_models_are_rng_driven(self):
        from repro.network.faults import IndependentDropout, IntermittentFaults

        for model_cls in (lambda: IndependentDropout(p=0.3), lambda: IntermittentFaults()):
            masks = []
            for _ in range(2):
                rng = np.random.default_rng(4)
                model = model_cls()
                masks.append(np.stack([model.drop_mask(10, r, rng) for r in range(5)]))
            assert np.array_equal(masks[0], masks[1])

    def test_duty_cycle_loop(self):
        from repro.network.duty_cycle import DutyCycleController
        from repro.sim.runner import run_tracking_with_duty_cycle
        from repro.sim.scenario import make_scenario

        outs = []
        for _ in range(2):
            scenario = make_scenario(CFG.with_(duration_s=3.0), seed=12)  # 6 rounds
            ctrl = DutyCycleController(scenario.nodes, sensing_range_m=CFG.sensing_range_m)
            res, ctrl = run_tracking_with_duty_cycle(scenario, scenario.make_tracker("fttt"), ctrl, 13)
            outs.append((res.positions.copy(), ctrl.energy_saved_fraction()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
