"""Tests for repro.sim.ablations."""

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro.sim.ablations import (
    ablate_matcher_hops,
    ablate_noise_structure,
    ablate_soft_signatures,
    ablate_uncertainty_constant,
)

TINY = SimulationConfig(n_sensors=8, duration_s=8.0, grid=GridConfig(cell_size_m=4.0))


class TestUncertaintyConstantAblation:
    def test_returns_both_modes(self):
        out = ablate_uncertainty_constant(TINY, n_reps=2, seed=0)
        assert set(out) == {"paper", "paper/std", "calibrated", "calibrated/std"}
        assert all(np.isfinite(v) for v in out.values())

    def test_reproducible(self):
        a = ablate_uncertainty_constant(TINY, n_reps=1, seed=4)
        b = ablate_uncertainty_constant(TINY, n_reps=1, seed=4)
        assert a == b


    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_rejects_no_replications(self, n_reps):
        with pytest.raises(ValueError, match="n_reps"):
            ablate_uncertainty_constant(TINY, n_reps=n_reps, seed=0)


class TestMatcherHopsAblation:
    def test_variants_present(self):
        out = ablate_matcher_hops(TINY, n_reps=1, seed=0)
        assert {"hops=1", "hops=2", "exhaustive"} <= set(out)

    def test_two_hop_not_worse_than_one_hop(self):
        cfg = SimulationConfig(n_sensors=12, duration_s=15.0, grid=GridConfig(cell_size_m=3.0))
        out = ablate_matcher_hops(cfg, n_reps=3, seed=1)
        assert out["hops=2"] <= out["hops=1"] * 1.1


class TestSoftSignatureAblation:
    def test_variants_present(self):
        out = ablate_soft_signatures(TINY, n_reps=1, seed=0)
        assert {"extended/hard-sig", "extended/soft-sig", "basic"} <= set(out)

    def test_soft_beats_hard_for_extended_vectors(self):
        cfg = SimulationConfig(n_sensors=10, duration_s=15.0, grid=GridConfig(cell_size_m=3.0))
        out = ablate_soft_signatures(cfg, n_reps=3, seed=2)
        assert out["extended/soft-sig"] < out["extended/hard-sig"]


class TestNoiseStructureAblation:
    def test_variants_present(self):
        out = ablate_noise_structure(TINY, n_reps=1, seed=0)
        assert {"iid", "temporal rho=0.9", "common-mode a=0.7"} <= set(out)

    def test_temporal_correlation_hurts(self):
        cfg = SimulationConfig(n_sensors=10, duration_s=15.0, grid=GridConfig(cell_size_m=3.0))
        out = ablate_noise_structure(cfg, n_reps=3, seed=3)
        # correlated samples starve flip capture: error rises vs iid
        assert out["temporal rho=0.9"] > out["iid"] * 0.95
