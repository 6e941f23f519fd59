"""Acceptance tests for the instrumented hot paths (ISSUE acceptance criteria).

A small sweep / tracking run with observability on must surface, in
``metrics.json`` and ``trace.jsonl``:

* face-map cache hit/miss counts,
* hill-climb step histograms (Algorithm 2 work),
* per-round masked-pair counts (Eq. 7 ``*`` components),

and the disabled path must record nothing at all.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.config import GridConfig, SimulationConfig
from repro.geometry.cache import configure_face_map_cache, default_face_map_cache
from repro.network.faults import IndependentDropout
from repro.sim.parallel import parallel_sweep
from repro.sim.runner import run_all_trackers
from repro.sim.scenario import make_scenario

TINY = SimulationConfig(duration_s=6.0, grid=GridConfig(cell_size_m=4.0))


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_FACE_CACHE_DIR", raising=False)
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    obs.set_enabled(None)
    obs.set_tracer(None)
    obs.reset()
    yield
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    default_face_map_cache().clear()
    obs.set_enabled(None)
    obs.set_tracer(None)
    obs.reset()


def _run_tracking(trackers=("fttt",), dropout=0.0, n_rounds=8, seed=3):
    scenario = make_scenario(TINY.with_(n_sensors=8), seed=seed)
    faults = IndependentDropout(p=dropout) if dropout else None
    return run_all_trackers(scenario, list(trackers), rng=seed, faults=faults, n_rounds=n_rounds)


class TestDisabledPath:
    def test_disabled_records_nothing(self):
        _run_tracking(trackers=("fttt", "fttt-exhaustive", "pm", "direct-mle"), dropout=0.3)
        assert obs.snapshot() == {}

    def test_disabled_emits_no_trace_events(self):
        t = obs.Tracer()
        obs.set_tracer(t)
        # tracer installed but metrics disabled: per-round events are
        # gated on obs.enabled() in the tracker, so nothing is emitted
        _run_tracking()
        assert [e for e in t.events if e["ev"] == "round"] == []


class TestEnabledTracking:
    def test_hill_climb_step_histogram_recorded(self):
        with obs.observe() as reg:
            _run_tracking(trackers=("fttt",), n_rounds=8)
        snap = reg.snapshot()
        steps = snap["core.heuristic.steps"]
        assert steps["type"] == "histogram"
        # round 1 is Algorithm 2's Initialization() (exhaustive scan);
        # every later round hill-climbs and records a step count
        assert snap["core.heuristic.init_scans"]["value"] >= 1
        assert steps["count"] >= 7
        assert snap["core.heuristic.rounds"]["value"] >= 7
        assert snap["tracker.rounds"]["value"] == 8

    def test_useful_fallbacks_match_a_separate_climb_and_scan(self):
        """``core.heuristic.useful_fallbacks`` counts the fallbacks whose
        scan finds a distance strictly below the climb's local optimum: the
        count that a climb without the fallback and a separate full scan
        give, round by round.  Recording it changes no result."""
        from repro.core.heuristic import HeuristicMatcher
        from repro.core.matching import ExhaustiveMatcher

        scenario = make_scenario(TINY.with_(n_sensors=8), seed=3)
        fm = scenario.face_map
        rng = np.random.default_rng(5)
        rss = rng.uniform(-80.0, -40.0, (40, 3, fm.n_nodes))
        rss[rng.random(rss.shape) < 0.2] = np.nan
        vectors = scenario.make_tracker("fttt").build_vectors(rss)
        starts = rng.integers(fm.n_faces, size=len(vectors)).tolist()
        climb, scan, gated = HeuristicMatcher(fm, fallback=False), ExhaustiveMatcher(fm), HeuristicMatcher(fm)
        fallbacks = useful = 0
        unrecorded = []
        for v, start in zip(vectors, starts):
            local = climb.match(v, start_face=start)
            if local.sq_distance > gated.fallback_sq_distance:
                fallbacks += 1
                useful += scan.match(v).sq_distance < local.sq_distance
            unrecorded.append(gated.match(v, start_face=start))
        with obs.observe() as reg:
            recorded = [gated.match(v, start_face=start) for v, start in zip(vectors, starts)]
        snap = reg.snapshot()
        assert 0 < useful < fallbacks
        assert snap["core.heuristic.fallbacks"]["value"] == fallbacks
        assert snap["core.heuristic.useful_fallbacks"]["value"] == useful
        for a, b in zip(unrecorded, recorded):
            assert a.face_ids.tolist() == b.face_ids.tolist() and a.sq_distance == b.sq_distance

    def test_masked_pair_counts_recorded_under_faults(self):
        with obs.observe() as reg:
            _run_tracking(trackers=("fttt",), dropout=0.4, n_rounds=8)
        snap = reg.snapshot()
        masked = snap["tracker.masked_pairs"]
        assert masked["count"] == 8
        assert masked["max"] > 0  # 40% dropout must mask some pairs
        dropped = snap["faults.dropped_sensors"]
        assert dropped["count"] == 8 and dropped["max"] > 0

    def test_dropout_increases_masked_pairs(self):
        # masked pairs exist even without injected faults (out-of-range
        # sensors are silent too); dropout must push the average up
        with obs.observe() as reg:
            _run_tracking(trackers=("fttt",), dropout=0.0, n_rounds=6)
            baseline = reg.snapshot()["tracker.masked_pairs"]
        with obs.observe() as reg:
            _run_tracking(trackers=("fttt",), dropout=0.6, n_rounds=6)
            faulty = reg.snapshot()["tracker.masked_pairs"]
        assert baseline["count"] == faulty["count"] == 6
        assert faulty["mean"] > baseline["mean"]

    def test_cache_hits_and_misses_recorded(self):
        with obs.observe() as reg:
            scenario = make_scenario(TINY.with_(n_sensors=8), seed=3)
            scenario.face_map  # build → miss
            get = default_face_map_cache().get_or_build
            # identical world again → hit
            make_scenario(TINY.with_(n_sensors=8), seed=3).face_map
            assert get is not None
        snap = reg.snapshot()
        assert snap["geometry.cache.misses"]["value"] >= 1
        assert snap["geometry.cache.hits"]["value"] >= 1

    def test_exhaustive_matcher_rounds_recorded(self):
        with obs.observe() as reg:
            _run_tracking(trackers=("fttt-exhaustive",), n_rounds=6)
        snap = reg.snapshot()
        assert snap["geometry.match.rounds"]["value"] >= 6
        assert snap["tracker.rounds"]["value"] == 6

    def test_round_trace_events_carry_paper_quantities(self):
        with obs.observe(trace_path=None) as _:
            t = obs.Tracer()
            obs.set_tracer(t)
            _run_tracking(trackers=("fttt",), dropout=0.4, n_rounds=5)
        rounds = [e for e in t.events if e["ev"] == "round"]
        assert len(rounds) == 5
        for ev in rounds:
            assert {"t", "mode", "face", "n_ties", "sq_distance", "masked_pairs", "n_reporting"} <= set(ev)
        assert any(ev["masked_pairs"] > 0 for ev in rounds)


@pytest.mark.slow
class TestSweepArtifacts:
    """parallel_sweep(obs_dir=...) writes metrics.json + trace.jsonl."""

    def _sweep(self, tmp_path, n_workers):
        out = tmp_path / f"obs_{n_workers}"
        # the duplicated point + seed_stride=0 revisits an identical
        # deployment, so the in-memory face-map cache takes real hits
        points = [
            (TINY.with_(n_sensors=6), {"run": 0}),
            (TINY.with_(n_sensors=6), {"run": 1}),
        ]
        records = parallel_sweep(
            points,
            ["fttt"],
            n_reps=2,
            seed=5,
            seed_stride=0,
            n_workers=n_workers,
            faults=IndependentDropout(p=0.3),
            obs_dir=out,
        )
        return out, records

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_metrics_json_has_acceptance_metrics(self, tmp_path, n_workers):
        out, records = self._sweep(tmp_path, n_workers)
        payload = json.loads((out / "metrics.json").read_text())
        metrics = payload["metrics"]
        # cache hit/miss counts
        assert "geometry.cache.misses" in metrics
        assert metrics["geometry.cache.misses"]["value"] >= 1
        assert "geometry.cache.hits" in metrics
        if n_workers == 1:
            # inline: point 2 reuses point 1's face maps from the LRU
            assert metrics["geometry.cache.hits"]["value"] >= 1
        # hill-climb step histogram
        steps = metrics["core.heuristic.steps"]
        assert steps["type"] == "histogram" and steps["count"] > 0
        assert steps["values"]  # exact per-step-count distribution
        # per-round masked-pair counts
        masked = metrics["tracker.masked_pairs"]
        assert masked["count"] == metrics["tracker.rounds"]["value"]
        assert masked["max"] > 0
        # sweep bookkeeping
        assert metrics["sweep.points"]["value"] == 2
        assert metrics["sweep.records"]["value"] == len(records)
        assert payload["sweep"]["workers"] == n_workers

    def test_trace_jsonl_written_and_valid(self, tmp_path):
        def events(out):
            return [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]

        out, _ = self._sweep(tmp_path, 1)
        lines = events(out)
        assert lines, "trace.jsonl must not be empty"
        names = {e["ev"] for e in lines}
        assert "sweep" in names
        # inline (n_workers=1) runs emit the per-round events too
        rounds = [e for e in lines if e["ev"] == "round"]
        assert rounds and all("masked_pairs" in e for e in rounds)
        # pool workers drop the tracer a fork hands them: only the parent
        # writes, so the trace holds the sweep event alone ...
        out, _ = self._sweep(tmp_path, 2)
        assert [e["ev"] for e in events(out)] == ["sweep"]
        # ... while metrics.json still merges the workers' counters
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]
        assert metrics["tracker.rounds"]["value"] == len(rounds)
        assert metrics["sweep.workers"]["value"] == 2

    def test_obs_sweep_does_not_perturb_results(self, tmp_path):
        points = [(TINY.with_(n_sensors=6), {"n_sensors": 6})]
        plain = parallel_sweep(points, ["fttt"], n_reps=2, seed=5, n_workers=1)
        with_obs = parallel_sweep(
            points, ["fttt"], n_reps=2, seed=5, n_workers=1, obs_dir=tmp_path / "o"
        )
        for a, b in zip(plain, with_obs):
            assert a.mean_error == b.mean_error
            assert a.per_rep_means == b.per_rep_means

    def test_spawn_workers_record_like_forked_ones(self, tmp_path, monkeypatch):
        """Each task carries the parent's gate, so spawned workers, which
        start from the defaults, record what forked ones do."""
        import multiprocessing
        import types

        from repro.sim import parallel as sim_parallel

        def recorded(out):
            metrics = json.loads((out / "metrics.json").read_text())["metrics"]
            names = ("tracker.rounds", "tracker.masked_pairs", "core.heuristic.steps")
            return {name: metrics[name] for name in names}

        forked, _ = self._sweep(tmp_path / "fork", 2)
        spawn_only = types.SimpleNamespace(
            get_context=multiprocessing.get_context, get_all_start_methods=lambda: ["spawn"]
        )
        monkeypatch.setattr(sim_parallel, "mp", spawn_only)
        spawned, _ = self._sweep(tmp_path / "spawn", 2)
        assert recorded(spawned) == recorded(forked)
        assert recorded(forked)["tracker.rounds"]["value"] > 0
        assert [json.loads(line)["ev"] for line in (spawned / "trace.jsonl").open()] == ["sweep"]

    def test_registry_holds_merged_metrics_after_sweep(self, tmp_path):
        self._sweep(tmp_path, 1)
        snap = obs.snapshot()
        assert snap["tracker.rounds"]["value"] > 0
        # but the enable flag did not leak
        assert not obs.enabled()


class TestFormatMetrics:
    def test_format_metrics_renders_histograms(self):
        with obs.observe() as reg:
            _run_tracking(trackers=("fttt",), dropout=0.3, n_rounds=5)
            text = obs.format_metrics(reg.snapshot())
        assert "core.heuristic.steps" in text
        assert "tracker.masked_pairs" in text
        assert "geometry.cache.misses" in text


def test_masked_pair_count_matches_vector_nans():
    """The masked_pairs metric equals the NaN count of the sampling vector."""
    from repro.core.vectors import sampling_vector
    from repro.geometry.primitives import enumerate_pairs

    rng = np.random.default_rng(0)
    rss = rng.normal(-60, 5, size=(3, 6))
    silent = np.array([False, False, True, True, False, False])
    rss[:, silent] = np.nan
    i_idx, j_idx = enumerate_pairs(6)
    vec = sampling_vector(rss)
    # pairs with both endpoints silent are starred (NaN) per Eq. 6
    expected = int(np.sum(silent[i_idx] & silent[j_idx]))
    assert int(np.isnan(vec).sum()) == expected
