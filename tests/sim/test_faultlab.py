"""Tests for repro.faultlab — campaign driver, strawmen, artifact output.

Includes the environment-hygiene regression: a fault model that blows up
mid-campaign must leave the observability gate, the active tracer and
``REPRO_FACE_CACHE_DIR`` exactly as they were (the sweep's scoped-state
guarantee extends to failed campaigns).
"""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro.faultlab.campaign import (
    DEFAULT_INTENSITIES,
    DEFAULT_TRACKERS,
    FAULT_FAMILIES,
    VALUE_FAULT_FAMILIES,
    CampaignResult,
    build_fault,
    campaign_config,
    run_campaign,
)
from repro.faultlab.strawmen import ZeroFillFTTT
from repro.network.faults import (
    ByzantineRSS,
    CalibrationDrift,
    IndependentDropout,
    RegionalOutage,
    StuckReading,
)
import repro.obs as obs
from repro.sim.parallel import parallel_sweep


def tiny_config() -> SimulationConfig:
    return SimulationConfig(
        n_sensors=6,
        duration_s=4.0,
        sensing_range_m=150.0,
        grid=GridConfig(cell_size_m=5.0),
    )


class TestBuildFault:
    @pytest.mark.parametrize(
        "family, kind",
        [
            ("dropout", IndependentDropout),
            ("byzantine", ByzantineRSS),
            ("stuck", StuckReading),
            ("drift", CalibrationDrift),
            ("regional", RegionalOutage),
        ],
    )
    def test_families_build_their_model(self, family, kind):
        assert isinstance(build_fault(family, 0.2, tiny_config()), kind)

    def test_families_registry_is_complete(self):
        assert set(VALUE_FAULT_FAMILIES) <= set(FAULT_FAMILIES)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown fault family"):
            build_fault("gremlins", 0.1, tiny_config())

    def test_intensity_out_of_range(self):
        with pytest.raises(ValueError, match="intensity"):
            build_fault("dropout", 1.5, tiny_config())

    def test_campaign_config_shapes(self):
        quick, full = campaign_config(quick=True), campaign_config()
        assert quick.duration_s < full.duration_s
        assert quick.sensing_range_m == full.sensing_range_m == 150.0


class TestRunCampaign:
    def test_small_campaign_records(self):
        result = run_campaign(
            ["dropout"],
            (0.0, 0.5),
            ("fttt",),
            config=tiny_config(),
            n_reps=1,
            seed=0,
            n_workers=1,
        )
        assert isinstance(result, CampaignResult)
        assert len(result.records) == 2  # families x intensities x trackers
        for r in result.records:
            assert r.params["fault"] == "dropout"
            assert np.isfinite(r.mean_error)
            assert np.isfinite(r.p95_error)
            assert 0.0 <= r.lost_track_rate <= 1.0
        assert result.csv_path is None and result.metrics_path is None

    def test_curve_sorted_by_intensity(self):
        result = run_campaign(
            ["dropout"],
            (0.5, 0.0),  # deliberately unsorted
            ("fttt",),
            config=tiny_config(),
            n_reps=1,
            n_workers=1,
        )
        curve = result.curve("dropout", "fttt")
        assert [r.params["intensity"] for r in curve] == [0.0, 0.5]
        assert result.curve("dropout", "no-such-tracker") == []

    def test_zero_intensity_anchors_match_across_families(self):
        """Intensity 0 disables every family: matched worlds -> same errors."""

        def anchor(family):
            result = run_campaign(
                [family], (0.0,), ("fttt",), config=tiny_config(), n_reps=1, n_workers=1
            )
            return result.records[0]

        a, b = anchor("dropout"), anchor("byzantine")
        assert a.mean_error == b.mean_error
        assert a.per_rep_means == b.per_rep_means

    def test_artifacts_written(self, tmp_path):
        result = run_campaign(
            ["byzantine"],
            (0.0, 0.5),
            ("fttt", "fttt-zero"),
            config=tiny_config(),
            n_reps=1,
            n_workers=1,
            out_dir=tmp_path,
        )
        assert result.csv_path == tmp_path / "robustness.csv"
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.records) == 4
        assert {"mean_error", "p95_error", "lost_track_rate"} <= set(rows[0])
        metrics = json.loads(result.metrics_path.read_text())
        assert metrics["sweep"]["points"] == 2
        assert "faults.value_rounds" in metrics["metrics"]
        assert (tmp_path / "trace.jsonl").exists()

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_campaign([], DEFAULT_INTENSITIES, DEFAULT_TRACKERS, config=tiny_config())
        with pytest.raises(ValueError, match="at least one"):
            run_campaign(["dropout"], (), DEFAULT_TRACKERS, config=tiny_config())

    def test_per_point_faults_length_mismatch(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="one entry per point"):
            parallel_sweep(
                [(cfg, {"a": 1}), (cfg, {"a": 2})],
                ["fttt"],
                n_reps=1,
                faults=[IndependentDropout(p=0.1)],  # 1 model for 2 points
            )


@dataclasses.dataclass(frozen=True)
class _ExplodingFaults:
    """Detonates on the first mask request — the mid-campaign failure case."""

    def drop_mask(self, n, round_index, rng):
        raise RuntimeError("injected campaign failure")


class TestEnvironmentHygiene:
    @pytest.fixture(autouse=True)
    def _default_obs(self):
        obs.set_enabled(None)
        obs.set_tracer(None)
        yield
        obs.set_enabled(None)
        obs.set_tracer(None)

    def test_failed_campaign_restores_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FACE_CACHE_DIR", raising=False)
        monkeypatch.setitem(
            FAULT_FAMILIES, "exploding", lambda intensity, config: _ExplodingFaults()
        )
        tracer_before = obs.Tracer()
        obs.set_tracer(tracer_before)
        with pytest.raises(RuntimeError, match="injected campaign failure"):
            run_campaign(
                ["exploding"],
                (0.5,),
                ("fttt",),
                config=tiny_config(),
                n_reps=1,
                n_workers=1,
                out_dir=tmp_path / "obs",
            )
        assert not obs.enabled()
        assert "REPRO_FACE_CACHE_DIR" not in os.environ
        assert obs.tracer() is tracer_before

    def test_successful_campaign_restores_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FACE_CACHE_DIR", "/tmp/sentinel-before")
        obs.set_enabled(True)
        run_campaign(
            ["dropout"],
            (0.0,),
            ("fttt",),
            config=tiny_config(),
            n_reps=1,
            n_workers=1,
            out_dir=tmp_path / "obs",
        )
        assert os.environ.get("REPRO_FACE_CACHE_DIR") == "/tmp/sentinel-before"
        assert obs.enabled()
        assert obs.tracer() is None


class TestStrawmen:
    def test_zero_fill_replaces_nan(self, face_map):
        tracker = ZeroFillFTTT(face_map)
        rss = np.array([[-60.0, np.nan, -70.0, np.nan]])
        vector = tracker.build_vector(rss)
        assert not np.isnan(vector).any()

    def test_zero_fill_batch_matches_single(self, face_map, rng):
        tracker = ZeroFillFTTT(face_map)
        stack = rng.uniform(-90.0, -40.0, size=(3, 2, 4))
        stack[0, :, 1] = np.nan
        vectors = tracker.build_vectors(stack)
        for t in range(3):
            assert np.array_equal(vectors[t], tracker.build_vector(stack[t]))
