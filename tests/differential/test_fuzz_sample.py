"""The tier-1 fuzz sample: 200 randomized scenarios, zero divergences.

This is the acceptance gate of the oracle layer — every optimized kernel
(face signatures, Algorithm-1 vectors, Eq. 7 distances, exhaustive
matching, Algorithm 2's climb, the tracker round loop with either
matcher, and all their batched variants) must agree with the
straight-from-the-paper reference on every scenario.

A deep run is available by exporting ``REPRO_FUZZ_BUDGET`` (the nightly
CI job sets it to several thousand); tier-1 keeps the fixed 200.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.oracle.fuzz import (
    LAYOUTS,
    FuzzSpec,
    _draw_nodes,
    default_budget,
    generate_spec,
    run_fuzz,
    run_spec,
)

TIER1_SCENARIOS = 200
TIER1_SEED = 20260806


def test_tier1_sample_has_zero_divergences(tmp_path):
    summary = run_fuzz(
        TIER1_SCENARIOS,
        seed=TIER1_SEED,
        n_workers=1,
        artifact_dir=tmp_path,
        shrink=False,
    )
    assert summary["n_scenarios"] == TIER1_SCENARIOS
    assert summary["n_divergent"] == 0, summary["first_divergence"]
    assert summary["first_divergence"] is None
    assert not list(tmp_path.iterdir())  # no artifact without a divergence
    # every check family must actually have run
    assert summary["n_checks"] > TIER1_SCENARIOS * 10
    # Algorithm 2 ran on every scenario; its agreement is a statistic
    assert 0.9 <= summary["heuristic_agreement"] <= 1.0


def test_scenario_generation_is_pure():
    """Spec *i* is a pure function of (seed, i) — the replay contract."""
    a = generate_spec(17, TIER1_SEED)
    b = generate_spec(17, TIER1_SEED)
    assert a == b
    assert a.to_dict() == b.to_dict()
    assert generate_spec(18, TIER1_SEED) != a


def test_spec_json_round_trip():
    spec = generate_spec(3, TIER1_SEED)
    assert FuzzSpec.from_dict(spec.to_dict()) == spec


def test_spec_without_layout_replays_as_uniform():
    """Artifacts written before node layouts existed still load."""
    data = generate_spec(3, TIER1_SEED).to_dict()
    del data["layout"]
    assert FuzzSpec.from_dict(data).layout == "uniform"


def test_tier1_sample_draws_every_layout():
    layouts = {generate_spec(i, TIER1_SEED).layout for i in range(TIER1_SCENARIOS)}
    assert layouts == set(LAYOUTS)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_layout_geometry(layout):
    """Each stall-prone layout puts its nodes where its name says."""
    spec = replace(generate_spec(0, TIER1_SEED), layout=layout, n_nodes=6, cell_size=3.0)
    nodes = _draw_nodes(spec, np.random.default_rng(5))
    lo, hi = 2.0, spec.field_size - 2.0
    assert nodes.shape == (6, 2)
    assert ((nodes >= lo - 1e-9) & (nodes <= hi + 1e-9)).all()
    if layout == "collinear":
        d = nodes[1:] - nodes[0]
        assert np.allclose(d[:, 0] * d[0, 1] - d[:, 1] * d[0, 0], 0.0, atol=1e-9)
    elif layout == "clustered":
        radius = spec.cell_size * math.sqrt(2.0) * max(1.0, math.sqrt(6) / 2.0)
        assert np.ptp(nodes, axis=0).max() <= 2.0 * radius
    elif layout == "perimeter":
        border = np.minimum(np.abs(nodes - lo), np.abs(nodes - hi)).min(axis=1)
        assert np.allclose(border, 0.0, atol=1e-9)


def test_unknown_layout_rejected():
    spec = replace(generate_spec(0, TIER1_SEED), layout="spiral")
    with pytest.raises(ValueError, match="layout"):
        _draw_nodes(spec, np.random.default_rng(0))


def test_run_spec_is_deterministic():
    spec = generate_spec(5, TIER1_SEED)
    assert run_spec(spec) == run_spec(spec)


def test_default_budget_env(monkeypatch):
    monkeypatch.delenv("REPRO_FUZZ_BUDGET", raising=False)
    assert default_budget() == 200
    monkeypatch.setenv("REPRO_FUZZ_BUDGET", "5000")
    assert default_budget() == 5000
    monkeypatch.setenv("REPRO_FUZZ_BUDGET", "zero")
    with pytest.raises(ValueError):
        default_budget()
    monkeypatch.setenv("REPRO_FUZZ_BUDGET", "0")
    with pytest.raises(ValueError):
        default_budget()


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_FUZZ_BUDGET"),
    reason="deep fuzz only runs with REPRO_FUZZ_BUDGET set (nightly CI)",
)
def test_deep_fuzz_budget(tmp_path):
    """The nightly campaign: REPRO_FUZZ_BUDGET scenarios, parallel workers."""
    summary = run_fuzz(
        default_budget(),
        seed=TIER1_SEED + 1,
        artifact_dir=os.environ.get("REPRO_FUZZ_ARTIFACTS", tmp_path),
    )
    assert summary["n_divergent"] == 0, summary["first_divergence"]
