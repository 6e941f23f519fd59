"""Tests for repro.sim.figures — shared figure-data generators."""

import numpy as np
import pytest

from repro.sim.figures import fig12a_series, model_mode_error

FAST = dict(duration_s=8.0, cell_size=4.0)


class TestModelModeError:
    def test_finite_and_positive(self):
        err = model_mode_error(n_sensors=8, rep_seeds=[0, 31], **FAST)
        assert np.isfinite(err) and err > 0

    def test_reproducible(self):
        a = model_mode_error(n_sensors=8, rep_seeds=[3, 34], **FAST)
        b = model_mode_error(n_sensors=8, rep_seeds=[3, 34], **FAST)
        assert a == b

    def test_more_sensors_lower_error(self):
        sparse = model_mode_error(n_sensors=6, rep_seeds=[1, 32], **FAST)
        dense = model_mode_error(n_sensors=20, rep_seeds=[1, 32], **FAST)
        assert dense < sparse

    def test_validation(self):
        with pytest.raises(ValueError):
            model_mode_error(n_sensors=8, rep_seeds=[])


class TestSeries:
    def test_fig12a_shape(self):
        table = fig12a_series([0.5, 3.0], [6, 8], rep_seeds=[0, 31], **FAST)
        assert set(table) == {6, 8}
        assert all(len(v) == 2 for v in table.values())

    def test_fig12b_k_direction(self):
        cfg = dict(n_sensors=10, rep_seeds=[0, 31, 62, 93], duration_s=15.0, cell_size=3.0)
        assert model_mode_error(k=9, **cfg) <= model_mode_error(k=3, **cfg) + 0.05

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            fig12a_series([], [6], rep_seeds=[0])
        with pytest.raises(ValueError):
            fig12a_series([0.5], [], rep_seeds=[0])
