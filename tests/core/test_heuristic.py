"""Tests for repro.core.heuristic — Algorithm 2 neighbor-link matching."""

import numpy as np
import pytest

from repro.core.heuristic import HeuristicMatcher, default_fallback_gate
from repro.core.matching import ExhaustiveMatcher
from repro.core.tracker import FTTTracker
from repro.geometry.faces import build_face_map


class TestHeuristicMatcher:
    def test_first_match_seeds_exhaustively(self, face_map):
        m = HeuristicMatcher(face_map)
        fid = face_map.n_faces // 2
        res = m.match(face_map.signatures[fid].astype(float))
        assert fid in res.face_ids
        assert m.last_face is not None

    def test_subsequent_match_from_previous_face(self, face_map):
        m = HeuristicMatcher(face_map)
        fid = face_map.n_faces // 2
        m.match(face_map.signatures[fid].astype(float))
        # match a neighbor's signature: hill climb should find it quickly
        nbrs = face_map.neighbors(fid)
        assert len(nbrs) > 0
        target = int(nbrs[0])
        res = m.match(face_map.signatures[target].astype(float))
        assert res.sq_distance == 0.0
        assert res.visited < face_map.n_faces  # did not scan everything

    def test_explicit_start_face(self, face_map):
        m = HeuristicMatcher(face_map, fallback=False)
        fid = face_map.n_faces // 2
        res = m.match(face_map.signatures[fid].astype(float), start_face=fid)
        assert res.face_ids.tolist() == [fid]
        assert res.sq_distance == 0.0

    def test_agrees_with_exhaustive_on_clean_vectors(self, face_map):
        heur = HeuristicMatcher(face_map)
        ex = ExhaustiveMatcher(face_map)
        # walk through a chain of neighboring faces
        fid = 0
        for _ in range(10):
            v = face_map.signatures[fid].astype(float)
            res_h = heur.match(v)
            res_e = ex.match(v)
            assert res_h.sq_distance == pytest.approx(res_e.sq_distance)
            nbrs = face_map.neighbors(fid)
            fid = int(nbrs[0]) if len(nbrs) else fid

    def test_fallback_triggers_on_bad_local_optimum(self, face_map, rng):
        m = HeuristicMatcher(face_map, fallback=True)
        m.fallback_sq_distance = 0.5
        # seed somewhere, then present a signature from the far corner
        m.match(face_map.signatures[0].astype(float))
        far = face_map.n_faces - 1
        res = m.match(face_map.signatures[far].astype(float))
        assert res.sq_distance == 0.0  # fallback rescued the match

    def test_no_fallback_may_return_local_optimum(self, face_map):
        m = HeuristicMatcher(face_map, fallback=False)
        m.match(face_map.signatures[0].astype(float))
        far = face_map.n_faces - 1
        res = m.match(face_map.signatures[far].astype(float))
        # may or may not reach the optimum, but must return *something* valid
        assert 0 <= res.face_id < face_map.n_faces

    def test_reset_clears_state(self, face_map):
        m = HeuristicMatcher(face_map)
        m.match(face_map.signatures[0].astype(float))
        m.reset()
        assert m.last_face is None

    def test_invalid_start_face(self, face_map):
        m = HeuristicMatcher(face_map)
        with pytest.raises(IndexError):
            m.match(face_map.signatures[0].astype(float), start_face=face_map.n_faces)

    def test_handles_nan_components(self, face_map):
        m = HeuristicMatcher(face_map)
        v = face_map.signatures[2].astype(float)
        v[0] = np.nan
        res = m.match(v)
        assert res.sq_distance == 0.0

    def test_validation(self, face_map):
        with pytest.raises(ValueError):
            HeuristicMatcher(face_map, hops=0)

    def test_visited_much_smaller_than_exhaustive_when_tracking(self, face_map):
        """The Algorithm 2 complexity claim: consecutive matching touches
        only a neighborhood, not all O(n^4) faces.  hops=1 is the paper's
        algorithm verbatim; the fixture map is tiny (dozens of faces) so
        the ratio bound is correspondingly loose."""
        m = HeuristicMatcher(face_map, fallback=False, hops=1)
        fid = face_map.n_faces // 2
        m.match(face_map.signatures[fid].astype(float))  # seed
        visits = []
        for _ in range(20):
            nbrs = face_map.neighbors(fid)
            fid = int(nbrs[0]) if len(nbrs) else fid
            res = m.match(face_map.signatures[fid].astype(float))
            visits.append(res.visited)
        assert np.mean(visits) < face_map.n_faces / 3

    def test_two_hop_default_improves_noisy_matching(self, face_map, rng):
        """hops=2 (default) escapes local optima that trap hops=1."""
        one = HeuristicMatcher(face_map, fallback=False, hops=1)
        two = HeuristicMatcher(face_map, fallback=False, hops=2)
        ex = ExhaustiveMatcher(face_map)
        wins_two, wins_one = 0, 0
        start = 0
        for _ in range(40):
            fid = int(rng.integers(0, face_map.n_faces))
            v = face_map.signatures[fid].astype(float)
            # corrupt two components
            for idx in rng.integers(0, face_map.n_pairs, size=2):
                v[idx] = rng.choice([-1.0, 0.0, 1.0])
            best = ex.match(v).sq_distance
            d_one = one.match(v, start_face=start).sq_distance
            d_two = two.match(v, start_face=start).sq_distance
            wins_one += d_one <= best + 1e-9
            wins_two += d_two <= best + 1e-9
            start = fid
        assert wins_two >= wins_one

    def test_invalid_hops(self, face_map):
        with pytest.raises(ValueError, match="hops"):
            HeuristicMatcher(face_map, hops=3)


class TestFallbackGate:
    """The gate scales with P = C(n, 2) and is defined by the matcher alone."""

    def test_default_gate_scales_with_pairs(self, face_map):
        assert HeuristicMatcher(face_map).fallback_sq_distance == pytest.approx(
            0.1 * face_map.n_pairs
        )
        assert default_fallback_gate(190) == pytest.approx(19.0)
        assert default_fallback_gate(190, soft=True) == pytest.approx(38.0)

    def test_explicit_gate_is_honoured(self, face_map):
        """The climb reads the gate from the instance: at 0 any imperfect
        local optimum falls back to the full scan, at infinity none does."""
        v = np.full(face_map.n_pairs, 0.5)  # no face matches it exactly
        visited = {}
        for gate in (0.0, np.inf):
            m = HeuristicMatcher(face_map, hops=1)
            m.fallback_sq_distance = gate
            visited[gate] = m.match(v, start_face=0).visited
        assert visited[0.0] >= visited[np.inf] + face_map.n_faces

    def test_tracker_and_bare_matcher_share_the_gate(self):
        """``make_tracker("fttt")``, the hops ablation's bare matcher and the
        extended tracker all take the gate from the matcher's default."""
        from repro.config import GridConfig, SimulationConfig
        from repro.sim.scenario import make_scenario

        config = SimulationConfig(n_sensors=8, grid=GridConfig(cell_size_m=4.0))
        scenario = make_scenario(config, seed=3)
        fm = scenario.face_map
        hard = scenario.make_tracker("fttt").matcher
        bare = HeuristicMatcher(fm)
        assert hard.fallback_sq_distance == bare.fallback_sq_distance
        assert hard.fallback_sq_distance == pytest.approx(0.1 * fm.n_pairs)
        soft = scenario.make_tracker("fttt-extended").matcher
        assert soft.soft
        assert soft.fallback_sq_distance == pytest.approx(2.0 * hard.fallback_sq_distance)
        assert HeuristicMatcher(fm, soft=True).fallback_sq_distance == soft.fallback_sq_distance


class TestRingCache:
    """The map memoizes each face's ring; a warm memo changes no result."""

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("fallback", [False, True])
    def test_cache_filled_by_another_trace(self, face_map, four_nodes, small_grid, hops, fallback):
        """A matcher on a map whose rings were filled by one trace climbs a
        second trace exactly as a matcher on a freshly built map does, and
        as ``oracle_climb`` (whose ring order decides ties on this small
        map; without the fallback every result is the climb's own)."""
        from repro.oracle import oracle_climb, oracle_face_adjacency, oracle_sampling_vector

        rng = np.random.default_rng(8)

        def trace(n_rounds: int) -> list:
            rss = rng.uniform(-80.0, -40.0, (n_rounds, 3, face_map.n_nodes))
            rss[rng.random(rss.shape) < 0.2] = np.nan
            return [oracle_sampling_vector(r) for r in rss]

        warm = HeuristicMatcher(face_map, hops=hops, fallback=fallback)
        for v in trace(40):
            warm.match(v, start_face=int(rng.integers(face_map.n_faces)))
        filled = set(face_map._rings[hops])
        # a view would share the warm memo, so the fresh matcher gets its own map
        fresh_map = build_face_map(four_nodes, small_grid, c=1.5)
        fresh = HeuristicMatcher(fresh_map, hops=hops, fallback=fallback)
        assert not fresh_map._rings[hops]
        signatures = face_map.signatures.astype(float)
        neighbors = oracle_face_adjacency(face_map)
        reused = 0
        for v in trace(40):
            start = int(rng.integers(face_map.n_faces))
            reused += start in filled
            got = warm.match(v, start_face=start)
            want = fresh.match(v, start_face=start)
            assert got.face_ids.tolist() == want.face_ids.tolist()
            assert got.sq_distance == want.sq_distance
            assert np.array_equal(got.position, want.position)
            assert got.visited == want.visited
            ids, d2 = oracle_climb(
                signatures,
                neighbors,
                v,
                start,
                hops=hops,
                fallback=fallback,
                gate=warm.fallback_sq_distance,
            )
            assert got.face_ids.tolist() == ids
            assert float(got.sq_distance) == d2
        assert reused > 0  # the second trace did climb through cached rings

    @pytest.mark.parametrize("hops", [1, 2])
    def test_matchers_on_one_map_share_its_memo(self, face_map, four_nodes, small_grid, hops):
        """Two matchers on one map and one on its ``view()`` share one ring
        memo per ``hops``, and every round they return what a matcher on a
        freshly built map returns."""
        sharing = [
            HeuristicMatcher(face_map, hops=hops),
            HeuristicMatcher(face_map, hops=hops),
            HeuristicMatcher(face_map.view(), hops=hops),
        ]
        assert all(m._rings is face_map._rings[hops] for m in sharing)
        assert HeuristicMatcher(face_map, hops=3 - hops)._rings is not face_map._rings[hops]
        fresh_map = build_face_map(four_nodes, small_grid, c=1.5)
        fresh = HeuristicMatcher(fresh_map, hops=hops)
        rng = np.random.default_rng(21)
        rss = rng.uniform(-80.0, -40.0, (30, 3, face_map.n_nodes))
        rss[rng.random(rss.shape) < 0.2] = np.nan
        tracker = FTTTracker(face_map)
        for r in rss:
            v = tracker.build_vector(r)
            start = int(rng.integers(face_map.n_faces))
            want = fresh.match(v, start_face=start)
            for m in sharing:
                got = m.match(v, start_face=start)
                assert got.face_ids.tolist() == want.face_ids.tolist()
                assert got.sq_distance == want.sq_distance
                assert np.array_equal(got.position, want.position)
                assert got.visited == want.visited
        shared = face_map._rings[hops]
        assert shared.keys() == fresh_map._rings[hops].keys()
        assert all(np.array_equal(shared[f], fresh_map._rings[hops][f]) for f in shared)
