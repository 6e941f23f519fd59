"""Tests for repro.sim.presets."""

import numpy as np
import pytest

from repro.sim.presets import PRESETS, list_presets, make_preset


class TestRegistry:
    def test_list_matches_registry(self):
        listed = dict(list_presets())
        assert set(listed) == set(PRESETS)
        assert all(desc for desc in listed.values())

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("underwater")


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestEveryPreset:
    def test_builds_and_tracks(self, name):
        scenario = make_preset(name, seed=1)
        assert scenario.n_sensors >= 2
        from repro.sim.runner import generate_batches

        tracker = scenario.make_tracker("fttt")
        res = tracker.track(generate_batches(scenario, 2, n_rounds=3))
        assert len(res) == 3
        assert np.all(np.isfinite(res.positions))

    def test_reproducible(self, name):
        a = make_preset(name, seed=7)
        b = make_preset(name, seed=7)
        assert np.array_equal(a.nodes, b.nodes)


class TestPresetShapes:
    def test_dense_has_more_sensors_than_sparse(self):
        assert make_preset("dense-grid").n_sensors > make_preset("sparse").n_sensors

    def test_outdoor_scale_field(self):
        assert make_preset("outdoor-scale").config.field_size_m == 40.0

    def test_momentum_uses_gauss_markov(self):
        from repro.mobility.gauss_markov import GaussMarkov

        assert isinstance(make_preset("momentum-target").mobility, GaussMarkov)
