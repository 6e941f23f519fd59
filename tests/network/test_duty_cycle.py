"""Tests for repro.network.duty_cycle."""

import numpy as np
import pytest

from repro.network.deployment import grid_deployment
from repro.network.duty_cycle import DutyCycleController, LinearPredictor


class TestLinearPredictor:
    def test_no_prediction_before_two_points(self):
        p = LinearPredictor()
        assert p.predict(1.0) is None
        p.observe(0.0, np.array([1.0, 1.0]))
        assert p.predict(1.0) is None

    def test_constant_velocity_exact(self):
        p = LinearPredictor()
        for i in range(4):
            p.observe(i * 1.0, np.array([2.0 * i, 3.0 * i]))
        pred = p.predict(5.0)
        assert np.allclose(pred, [10.0, 15.0])
        assert np.allclose(p.velocity(), [2.0, 3.0])

    def test_window_forgets_old_motion(self):
        p = LinearPredictor(window=3)
        # old leg moving +x, recent leg moving +y
        p.observe(0.0, np.array([0.0, 0.0]))
        p.observe(1.0, np.array([5.0, 0.0]))
        for i in range(3):
            p.observe(2.0 + i, np.array([5.0, 5.0 * (i + 1)]))
        v = p.velocity()
        assert abs(v[0]) < 0.5
        assert v[1] == pytest.approx(5.0, abs=0.5)

    def test_stationary_target(self):
        p = LinearPredictor()
        for i in range(3):
            p.observe(i * 1.0, np.array([7.0, 7.0]))
        assert np.allclose(p.predict(10.0), [7.0, 7.0])

    def test_reset(self):
        p = LinearPredictor()
        p.observe(0.0, np.zeros(2))
        p.observe(1.0, np.ones(2))
        p.reset()
        assert p.velocity() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearPredictor(window=1)


class TestDutyCycleController:
    @pytest.fixture
    def nodes(self):
        return grid_deployment(25, 100.0)

    def test_cold_start_all_awake(self, nodes):
        ctrl = DutyCycleController(nodes)
        sleep = ctrl.sleep_mask(0.0)
        assert not sleep.any()

    def test_far_sensors_sleep_after_lock(self, nodes):
        ctrl = DutyCycleController(nodes, sensing_range_m=40.0, guard_m=10.0)
        ctrl.update(0.0, np.array([20.0, 20.0]))
        ctrl.update(0.5, np.array([20.5, 20.0]))
        sleep = ctrl.sleep_mask(1.0)
        # the far corner sensor is well beyond 50 m from (21, 20)
        far_idx = int(np.argmax(np.hypot(nodes[:, 0] - 21.0, nodes[:, 1] - 20.0)))
        assert sleep[far_idx]
        # sensors near the prediction stay awake
        near_idx = int(np.argmin(np.hypot(nodes[:, 0] - 21.0, nodes[:, 1] - 20.0)))
        assert not sleep[near_idx]

    def test_min_awake_enforced(self, nodes):
        ctrl = DutyCycleController(nodes, sensing_range_m=1.0, guard_m=0.0, min_awake=5)
        ctrl.update(0.0, np.array([50.0, 50.0]))
        ctrl.update(0.5, np.array([50.0, 50.0]))
        sleep = ctrl.sleep_mask(1.0)
        assert (~sleep).sum() == 5

    def test_duty_cycle_accounting(self, nodes):
        ctrl = DutyCycleController(nodes, sensing_range_m=30.0, guard_m=5.0)
        assert ctrl.duty_cycle == 1.0
        ctrl.update(0.0, np.array([50.0, 50.0]))
        ctrl.update(0.5, np.array([50.0, 50.0]))
        ctrl.sleep_mask(1.0)
        assert ctrl.duty_cycle < 1.0
        assert ctrl.energy_saved_fraction() == pytest.approx(1.0 - ctrl.duty_cycle)

    def test_reset(self, nodes):
        ctrl = DutyCycleController(nodes)
        ctrl.update(0.0, np.zeros(2))
        ctrl.update(0.5, np.zeros(2))
        ctrl.sleep_mask(1.0)
        ctrl.reset()
        assert ctrl.duty_cycle == 1.0
        assert ctrl.predictor.velocity() is None

    def test_validation(self, nodes):
        with pytest.raises(ValueError):
            DutyCycleController(nodes, sensing_range_m=0.0)
        with pytest.raises(ValueError):
            DutyCycleController(nodes, min_awake=1)


class TestClosedLoop:
    def test_duty_cycled_tracking_saves_energy_cheaply(self, fast_config):
        """The headline: meaningful sensor-round savings at little error cost."""
        from repro.sim.runner import run_tracking, run_tracking_with_duty_cycle
        from repro.sim.scenario import make_scenario

        cfg = fast_config.with_(n_sensors=16, duration_s=15.0)
        scenario = make_scenario(cfg, seed=4)
        base = run_tracking(scenario, scenario.make_tracker("fttt"), 5)
        ctrl = DutyCycleController(
            scenario.nodes, sensing_range_m=cfg.sensing_range_m, guard_m=15.0
        )
        duty, ctrl = run_tracking_with_duty_cycle(
            scenario, scenario.make_tracker("fttt"), ctrl, 5
        )
        assert ctrl.energy_saved_fraction() > 0.05
        assert duty.mean_error < base.mean_error * 1.5 + 2.0
