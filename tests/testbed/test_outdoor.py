"""Tests for repro.testbed.outdoor — the Fig. 13 system end to end."""

import numpy as np
import pytest

from repro.testbed.outdoor import build_outdoor_system


@pytest.fixture(scope="module")
def system():
    return build_outdoor_system(field_size=40.0, seed=0)


class TestBuild:
    def test_nine_motes_cross(self, system):
        assert len(system.motes) == 9
        positions = system.positions
        assert np.allclose(positions[0], [20.0, 20.0])

    def test_gain_offsets_vary(self, system):
        offsets = [m.gain_offset_db for m in system.motes]
        assert len(set(offsets)) > 1

    def test_face_map_built_with_acoustic_beta(self, system):
        fm = system.face_map
        assert fm.n_faces > 1
        assert fm.c > 1.0

    def test_path_is_inside_field(self, system):
        t = np.linspace(0, system.path.duration_s, 200)
        pos = system.path.position(t)
        assert pos.min() >= 0 and pos.max() <= 40.0


class TestSampling:
    def test_sample_round_shape(self, system):
        rng = np.random.default_rng(1)
        batch = system.sample_round(0.0, rng)
        assert batch.rss.shape == (system.k, 9)

    def test_frame_loss_produces_nans_over_time(self, system):
        rng = np.random.default_rng(2)
        mats = [system.sample_round(i * 0.5, rng).rss for i in range(20)]
        assert any(np.isnan(m).any() for m in mats)


class TestRun:
    def test_basic_tracking_reasonable(self, system):
        res = system.run(mode="basic", rng=3)
        # one round per grouping period over the whole trace
        assert len(res) == int(system.path.duration_s / (system.k / system.sampling_rate_hz))
        # playground is 40 m; tracking should stay well under half the field
        assert res.mean_error < 15.0

    def test_extended_tracking_runs(self, system):
        res = system.run(mode="extended", rng=3)
        assert len(res) > 1
        assert np.isfinite(res.mean_error)

    def test_reproducible(self, system):
        a = system.run(mode="basic", rng=7)
        b = system.run(mode="basic", rng=7)
        assert np.allclose(a.positions, b.positions)
