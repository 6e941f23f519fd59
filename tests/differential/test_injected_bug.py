"""End-to-end sensitivity check: an injected kernel bug must be caught.

A differential harness that never fires is indistinguishable from one
that cannot fire.  These tests mutate a production kernel (the match tie
tolerance, the Eq. 6 fill, Algorithm 2's ring and its fallback gate),
assert the fuzzer reports a divergence with a shrunk, replayable
artifact, then restore the kernel and assert the same campaign runs
clean again.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.core.heuristic as heuristic
from repro.core.heuristic import HeuristicMatcher
from repro.geometry.faces import FaceMap
from repro.oracle.fuzz import replay_divergence, run_fuzz

CAMPAIGN = dict(seed=3, n_workers=1)
N_SCENARIOS = 60


@pytest.fixture
def inflated_tie_tolerance(monkeypatch):
    """Mutate the kernel: admit faces 0.75 beyond the honest tie threshold."""
    original = FaceMap.tie_tolerance
    monkeypatch.setattr(
        FaceMap, "tie_tolerance", lambda self, best: original(self, best) + 0.75
    )


def test_injected_bug_is_caught_and_artifact_replayable(
    inflated_tie_tolerance, tmp_path
):
    summary = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, **CAMPAIGN)
    assert summary["n_divergent"] > 0
    first = summary["first_divergence"]
    assert first is not None
    assert first["check"] in ("match_winner", "batched_match", "tracker_anchor")

    artifact_path = tmp_path / f"divergence_seed{CAMPAIGN['seed']}_idx{first['index']}.json"
    assert str(artifact_path) == first["artifact"]
    artifact = json.loads(artifact_path.read_text())
    assert artifact["check"] == first["check"]
    assert artifact["spec"] == first["spec"]
    assert artifact["divergence"]["check"] == first["check"]

    # one-command repro: the artifact reproduces while the bug is in place
    replay = replay_divergence(artifact_path)
    assert replay["reproduced"]
    assert replay["recorded_check"] == first["check"]


def _spec_size(spec: dict) -> tuple:
    return (
        spec["n_nodes"],
        spec["n_rounds"],
        spec["k"],
        spec["value_fault"] is not None,
        spec["dropout_p"] > 0,
        spec["sample_loss_p"] > 0,
        spec["degradation"],
    )


def _assert_not_larger(shrunk: dict, raw: dict) -> None:
    """The shrunk spec is never larger than the raw one, in every dimension."""
    assert all(s <= r for s, r in zip(_spec_size(shrunk), _spec_size(raw)))


def test_shrinking_minimizes_the_failing_spec(inflated_tie_tolerance, tmp_path):
    raw = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, shrink=False, **CAMPAIGN)
    shrunk = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, shrink=True, **CAMPAIGN)
    assert raw["first_divergence"]["index"] == shrunk["first_divergence"]["index"]
    _assert_not_larger(shrunk["first_divergence"]["spec"], raw["first_divergence"]["spec"])


def test_campaign_is_clean_after_the_bug_is_removed(tmp_path):
    """Same campaign, honest kernel: zero divergences, no artifacts."""
    summary = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, **CAMPAIGN)
    assert summary["n_divergent"] == 0
    assert not list(tmp_path.iterdir())


def test_replayed_artifact_reports_clean_after_fix(tmp_path):
    """An artifact recorded under the bug stops reproducing once fixed."""
    original = FaceMap.tie_tolerance
    FaceMap.tie_tolerance = lambda self, best: original(self, best) + 0.75
    try:
        summary = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, **CAMPAIGN)
        artifact = summary["first_divergence"]["artifact"]
    finally:
        FaceMap.tie_tolerance = original
    replay = replay_divergence(artifact)
    assert not replay["reproduced"]
    assert replay["report"]["divergences"] == []


def test_vector_kernel_bug_is_caught(monkeypatch, tmp_path):
    """A second, independent mutation: break the Eq. 6 fill direction."""
    import repro.core.vectors as vectors

    original = vectors._eq6_fill_stack

    def flipped(values, rss, i_idx, j_idx, n_valid):
        return -original(values, rss, i_idx, j_idx, n_valid)

    monkeypatch.setattr(vectors, "_eq6_fill_stack", flipped)
    summary = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, **CAMPAIGN)
    assert summary["n_divergent"] > 0
    assert summary["first_divergence"]["check"] == "sampling_vector"


@pytest.fixture
def one_hop_climb(monkeypatch):
    """Mutate Algorithm 2: every matcher silently climbs over one hop."""
    original = HeuristicMatcher.__init__

    def one_hop(self, face_map, **kwargs):
        kwargs["hops"] = 1
        original(self, face_map, **kwargs)

    monkeypatch.setattr(HeuristicMatcher, "__init__", one_hop)


@pytest.fixture
def gate_never_fires(monkeypatch):
    """Mutate the default fallback gate so no climb ever falls back."""
    monkeypatch.setattr(heuristic, "default_fallback_gate", lambda n_pairs, soft=False: 1e9)


@pytest.mark.parametrize("mutation", ["one_hop_climb", "gate_never_fires"])
def test_climb_bug_is_caught_shrunk_and_replayable(mutation, request, tmp_path):
    request.getfixturevalue(mutation)
    raw = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path / "raw", shrink=False, **CAMPAIGN)
    summary = run_fuzz(N_SCENARIOS, artifact_dir=tmp_path, **CAMPAIGN)
    first = summary["first_divergence"]
    assert first is not None
    assert first["check"] in ("heuristic", "tracker_heuristic")
    assert first["index"] == raw["first_divergence"]["index"]
    _assert_not_larger(first["spec"], raw["first_divergence"]["spec"])
    replay = replay_divergence(first["artifact"])
    assert replay["reproduced"]
    assert replay["recorded_check"] == first["check"]
