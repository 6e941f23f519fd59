"""Tests for repro.core.heuristic — Algorithm 2 neighbor-link matching."""

import numpy as np
import pytest

from repro.core.heuristic import HeuristicMatcher, default_fallback_gate
from repro.core.matching import ExhaustiveMatcher


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
        m = HeuristicMatcher(face_map, fallback=True, fallback_sq_distance=0.5)
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
            HeuristicMatcher(face_map, fallback_sq_distance=-1.0)
        with pytest.raises(ValueError):
            HeuristicMatcher(face_map, max_steps=0)

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
        assert HeuristicMatcher(face_map, fallback_sq_distance=4.0).fallback_sq_distance == 4.0
        assert HeuristicMatcher(face_map, fallback_sq_distance=0.0).fallback_sq_distance == 0.0

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
