"""Tests for repro.analysis.energy."""

import pytest

from repro.analysis.energy import EnergyModel, project_lifetime


class TestEnergyModel:
    def test_defaults_positive(self):
        m = EnergyModel()
        assert m.battery_j > 0
        assert m.sleep_j < m.idle_listen_j

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(sample_j=-1.0)
        with pytest.raises(ValueError):
            EnergyModel(battery_j=0.0)


class TestProjectLifetime:
    def test_duty_cycling_extends_lifetime(self):
        full = project_lifetime(10, 5, duty_cycle=1.0)
        half = project_lifetime(10, 5, duty_cycle=0.5)
        assert half["mean_rounds"] > full["mean_rounds"]
        assert half["duty_cycle_gain"] > 1.0

    def test_relay_load_shortens_bottleneck(self):
        light = project_lifetime(10, 5, max_relay_load=0)
        heavy = project_lifetime(10, 5, max_relay_load=8)
        assert heavy["bottleneck_rounds"] < light["bottleneck_rounds"]

    def test_matches_hand_computed_round_cost(self):
        m = EnergyModel(sample_j=1.0, report_tx_j=2.0, idle_listen_j=0.5, relay_tx_j=1.0, battery_j=130.0)
        proj = project_lifetime(4, 4, model=m, duty_cycle=1.0, max_relay_load=3)
        # 4 samples + idle + report = 6.5 J a round; the bottleneck adds 3 relays
        assert proj["mean_rounds"] == pytest.approx(20.0)
        assert proj["bottleneck_rounds"] == pytest.approx(130.0 / 9.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            project_lifetime(10, 5, duty_cycle=0.0)
        with pytest.raises(ValueError):
            project_lifetime(10, 5, max_relay_load=-1)
