"""Unit-level differentials: the oracle tier vs the production kernels.

The fuzz harness (``test_fuzz_sample``) covers randomized scenarios; the
tests here pin the individual oracle functions on the shared fixtures and
against independent ground truth (exact circle intersections, closed
forms), so a bug in the *oracle* itself cannot hide behind agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.error_bounds import expected_interface_error
from repro.analysis.sampling_times import (
    all_flips_probability,
    required_sampling_times,
)
from repro.core.heuristic import HeuristicMatcher
from repro.core.tracker import DegradationPolicy, FTTTracker
from repro.geometry.exact import circle_intersections
from repro.geometry.primitives import Circle
from repro.oracle import (
    check_sampling_times_bound,
    dense_signatures,
    mc_flip_capture,
    mc_interface_error,
    oracle_climb,
    oracle_face_adjacency,
    oracle_masked_sq_distance,
    oracle_match,
    oracle_pair_value,
    oracle_sampling_vector,
    oracle_track,
    verify_face_map,
)
from repro.oracle.geometry import _apollonius_center_radius


class TestGeometryOracle:
    def test_apollonius_circle_agrees_with_exact_intersections(self):
        """The oracle's circle must pass through the exact locus points.

        Every intersection of the oracle circle with an arbitrary probe
        circle satisfies ``|x - p_i| / |x - p_j| = ratio`` — the defining
        property of the Apollonius locus (Eq. 4), checked through the
        independent :func:`repro.geometry.exact.circle_intersections`.
        """
        p_i, p_j, ratio = (20.0, 30.0), (60.0, 34.0), 1.0 / 1.4
        cx, cy, r = _apollonius_center_radius(p_i, p_j, ratio)
        probe = Circle(cx + r * 0.6, cy - r * 0.2, r * 0.9)
        points = circle_intersections(Circle(cx, cy, r), probe)
        assert len(points) == 2
        for x, y in points:
            d_i = np.hypot(x - p_i[0], y - p_i[1])
            d_j = np.hypot(x - p_j[0], y - p_j[1])
            assert d_i / d_j == pytest.approx(ratio, rel=1e-9)

    def test_pair_value_inside_each_circle(self):
        p_i, p_j, c = (30.0, 30.0), (70.0, 30.0), 1.5
        assert oracle_pair_value(p_i, p_i, p_j, c) == 1
        assert oracle_pair_value(p_j, p_i, p_j, c) == -1
        midpoint = (50.0, 30.0)
        assert oracle_pair_value(midpoint, p_i, p_j, c) == 0

    def test_pair_value_sensing_range_overrides(self):
        p_i, p_j = (0.0, 0.0), (100.0, 0.0)
        near_i = (5.0, 0.0)
        assert oracle_pair_value(near_i, p_i, p_j, 1.5, sensing_range=20.0) == 1
        far = (50.0, 80.0)
        assert oracle_pair_value(far, p_i, p_j, 1.5, sensing_range=20.0) == 0

    def test_face_map_fixture_verifies_clean(self, face_map):
        report = verify_face_map(face_map)
        assert report["mismatches"] == []
        assert report["centroid_errors"] == []
        assert report["n_checked"] == face_map.grid.n_cells * face_map.n_pairs

    def test_certain_map_fixture_verifies_clean(self, certain_map):
        report = verify_face_map(certain_map)
        assert report["mismatches"] == []
        assert report["centroid_errors"] == []

    def test_dense_signatures_match_production_cells(self, face_map):
        centers = face_map.grid.cell_centers[::97]  # a deterministic sample
        oracle = dense_signatures(centers, face_map.nodes, face_map.c)
        production = face_map.signatures[face_map.cell_face[::97]]
        assert np.array_equal(oracle, production)


class TestMatchingOracle:
    def _rss(self, rng, k=4, n=4):
        rss = rng.uniform(-80.0, -40.0, (k, n))
        rss[rng.random((k, n)) < 0.2] = np.nan
        return rss

    @pytest.mark.parametrize("mode", ["basic", "extended"])
    def test_vectors_bit_identical_to_production(self, rng, mode):
        from repro.core.vectors import extended_sampling_vector, sampling_vector

        build = extended_sampling_vector if mode == "extended" else sampling_vector
        for _ in range(50):
            rss = self._rss(rng)
            assert np.array_equal(
                build(rss),
                oracle_sampling_vector(rss, mode=mode),
                equal_nan=True,
            )

    def test_masked_distance_matches_float32_kernel(self, face_map, rng):
        for _ in range(25):
            v = oracle_sampling_vector(self._rss(rng))
            production = face_map.distances_to(v)
            for f in range(face_map.n_faces):
                # basic values are exact small integers: bit equality
                assert float(production[f]) == oracle_masked_sq_distance(
                    v, face_map.signatures[f].astype(float)
                )
        # Algorithm 2 ring scoring is the same kernel over a face subset:
        # exact for basic vectors with * components, float32-close for
        # fractional vectors and soft signatures
        from repro.core.extended import attach_soft_signatures

        soft_map = face_map.view()
        attach_soft_signatures(
            soft_map, path_loss_exponent=3.0, noise_sigma_dbm=4.0, resolution_dbm=1.0
        )
        eps32 = float(np.finfo(np.float32).eps)
        for i in range(25):
            rss = self._rss(rng)
            if i % 2:
                rss[:, :2] = np.nan  # two silent sensors: their pair is *
            ring = rng.choice(face_map.n_faces, size=min(7, face_map.n_faces), replace=False)
            basic = oracle_sampling_vector(rss)
            assert np.isnan(basic[0]) == bool(i % 2)
            query = face_map._query(basic.astype(np.float32)[None], False)
            scores = face_map._sq_distances(query, ring)[0]
            for f, d2 in zip(ring, scores):
                assert float(d2) == oracle_masked_sq_distance(
                    basic, face_map.signatures[f].astype(float)
                )
            extended = oracle_sampling_vector(rss, mode="extended")
            for soft, signatures in (
                (False, face_map.signatures),
                (True, soft_map.soft_signatures),
            ):
                query = soft_map._query(extended.astype(np.float32)[None], soft)
                scores = soft_map._sq_distances(query, ring)[0]
                for f, d2 in zip(ring, scores):
                    expected = oracle_masked_sq_distance(extended, signatures[f].astype(float))
                    assert abs(float(d2) - expected) <= 64.0 * eps32 * (expected + 1.0)

    def test_match_ties_equal_production(self, face_map, rng):
        signatures = face_map.signatures.astype(float)
        for _ in range(25):
            v = oracle_sampling_vector(self._rss(rng))
            ties, best = face_map.match(v)
            oracle_ties, oracle_best = oracle_match(signatures, v)
            assert ties.tolist() == oracle_ties
            assert float(best) == oracle_best


class TestClimbOracle:
    """The scalar Algorithm 2 climb and the adjacency it walks."""

    def test_face_adjacency_matches_production(self, face_map, certain_map):
        for fm in (face_map, certain_map):
            oracle = oracle_face_adjacency(fm)
            assert [fm.neighbors(f).tolist() for f in range(fm.n_faces)] == oracle

    def test_hand_built_path_graph(self):
        """Ground truth without a face map: faces 0-1-2-3-4 in a path.

        Distances to the zero vector are 5, 3, 3, 1, 0.  The 1-hop climb
        from face 0 moves to 1 and stops there: 1's ring {0, 2} holds
        nothing strictly better.  The 2-hop ring of 0 is {1, 2}; 1 and 2
        tie at 3, the first met (1) wins, and the climb goes on to 3
        and 4.
        """
        vector = np.zeros(5)
        signatures = np.array(
            [
                [1, 1, 1, 1, 1],
                [1, 1, 1, 0, 0],
                [0, 0, 1, 1, 1],
                [1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        neighbors = [[1], [0, 2], [1, 3], [2, 4], [3]]
        assert oracle_climb(signatures, neighbors, vector, 0, hops=1, fallback=False) == ([1], 3.0)
        # 2 hops: 0 -> 1 (tie with 2) -> 3 (ring {0, 2, 3}) -> 4
        # (a set of ints below its table size iterates in ascending order)
        assert oracle_climb(signatures, neighbors, vector, 0, fallback=False) == ([4], 0.0)
        # the stalled 1-hop climb falls back to the full scan above the
        # gate (default 0.1 * P = 0.5), and keeps its optimum within it
        assert oracle_climb(signatures, neighbors, vector, 0, hops=1) == ([4], 0.0)
        assert oracle_climb(signatures, neighbors, vector, 0, hops=1, gate=2.0) == ([4], 0.0)
        assert oracle_climb(signatures, neighbors, vector, 0, hops=1, gate=3.0) == ([1], 3.0)

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("gate", [None, 0.0, 2.0])
    def test_climb_bit_identical_to_production(self, face_map, rng, hops, gate):
        signatures = face_map.signatures.astype(float)
        neighbors = oracle_face_adjacency(face_map)
        matcher = HeuristicMatcher(face_map, hops=hops, fallback=gate is not None)
        if gate is not None:
            matcher.fallback_sq_distance = gate
        for _ in range(30):
            rss = rng.uniform(-80.0, -40.0, (3, face_map.n_nodes))
            rss[rng.random(rss.shape) < 0.2] = np.nan
            v = oracle_sampling_vector(rss)
            start = int(rng.integers(face_map.n_faces))
            got = matcher.match(v, start_face=start)
            ids, d2 = oracle_climb(
                signatures,
                neighbors,
                v,
                start,
                hops=hops,
                fallback=gate is not None,
                gate=gate,
            )
            assert got.face_ids.tolist() == ids
            assert float(got.sq_distance) == d2


class TestTrackingOracle:
    def _rounds(self, rng, n_rounds=5, k=3, n=4):
        out = []
        for _ in range(n_rounds):
            rss = rng.uniform(-80.0, -40.0, (k, n))
            rss[rng.random((k, n)) < 0.15] = np.nan
            out.append(rss)
        return out

    def test_plain_tracker_anchor_sequence_bit_identical(self, face_map, rng):
        rounds = self._rounds(rng)
        tracker = FTTTracker(face_map, matcher="exhaustive")
        production = [tracker.localize(r, t=float(i)) for i, r in enumerate(rounds)]
        oracle = oracle_track(face_map, rounds)
        for prod, want in zip(production, oracle):
            assert prod.face_ids.tolist() == list(want.face_ids)
            assert tuple(prod.position) == want.position
            assert float(prod.sq_distance) == want.sq_distance

    @pytest.mark.parametrize("with_policy", [False, True])
    def test_heuristic_tracker_bit_identical(self, face_map, rng, with_policy):
        policy = (
            DegradationPolicy(warmup_rounds=2, min_reporting=3, max_masked_fraction=0.5)
            if with_policy
            else None
        )
        rounds = self._rounds(rng, n_rounds=12)
        tracker = FTTTracker(face_map, degradation=policy)
        assert isinstance(tracker.matcher, HeuristicMatcher)
        production = [tracker.localize(r, t=float(i)) for i, r in enumerate(rounds)]
        oracle = oracle_track(face_map, rounds, matcher="heuristic", degradation=policy)
        for prod, want in zip(production, oracle):
            assert prod.face_ids.tolist() == list(want.face_ids)
            assert tuple(prod.position) == want.position
            assert float(prod.sq_distance) == want.sq_distance

    @staticmethod
    def _sign_vector(rss):
        """A round's detection sequence as pair signs, by scalar loops: each
        sensor's mean sample, a silent sensor weaker than a reporting one,
        and a pair of two silent sensors ``*``."""
        means = [None if np.isnan(col).all() else float(np.nanmean(col)) for col in rss.T]
        n = len(means)
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                a, b = means[i], means[j]
                if a is None and b is None:
                    out.append(float("nan"))
                else:
                    out.append(1.0 if b is None else -1.0 if a is None else float(np.sign(a - b)))
        return np.array(out)

    def test_direct_mle_matches_oracle(self, certain_map, rng):
        """Direct MLE matches each round's sign vector against every bisector
        face, silent sensors (``*`` pairs) included."""
        from repro.baselines.direct_mle import DirectMLETracker
        from repro.rf.channel import SampleBatch

        rounds = self._rounds(rng, n_rounds=30)
        for i, rss in enumerate(rounds):
            rss[:, rng.random(rss.shape[1]) < 0.3 + 0.2 * (i % 2)] = np.nan
        batches = [
            SampleBatch(rss=rss, times=i + np.arange(3) / 10.0, positions=np.zeros((3, 2)))
            for i, rss in enumerate(rounds)
        ]
        result = DirectMLETracker(certain_map).track(batches)
        signatures = certain_map.signatures.astype(float)
        masked = 0
        for est, rss in zip(result.estimates, rounds):
            v = self._sign_vector(rss)
            oracle_ties, oracle_best = oracle_match(signatures, v)
            assert est.face_ids.tolist() == oracle_ties
            assert float(est.sq_distance) == oracle_best
            masked += int(np.isnan(v).any())
        assert masked > 0

    def test_unknown_matcher_rejected(self, face_map, rng):
        with pytest.raises(ValueError, match="matcher"):
            oracle_track(face_map, self._rounds(rng), matcher="greedy")

    def test_degradation_tracker_bit_identical(self, face_map, rng):
        policy = DegradationPolicy(
            warmup_rounds=2, min_reporting=3, max_masked_fraction=0.5
        )
        rounds = self._rounds(rng, n_rounds=8)
        tracker = FTTTracker(face_map, matcher="exhaustive", degradation=policy)
        production = [tracker.localize(r, t=float(i)) for i, r in enumerate(rounds)]
        oracle = oracle_track(face_map, rounds, degradation=policy)
        held = 0
        for prod, want in zip(production, oracle):
            assert prod.face_ids.tolist() == list(want.face_ids)
            assert tuple(prod.position) == want.position
            assert float(prod.sq_distance) == want.sq_distance
            held += want.held
        assert held == sum(1 for p in production if p.sq_distance == float("inf"))


class TestAnalysisOracle:
    def test_mc_flip_capture_matches_closed_form(self):
        estimate = mc_flip_capture(5, 8, n_trials=20_000, rng=0)
        # independent pairs: truth is (1-f)^N; the paper's (1-f)^(N-1) is
        # the loose variant -- the MC estimate must sit at/below it
        f = 0.5**4
        assert estimate == pytest.approx((1 - f) ** 8, abs=0.02)
        assert estimate <= all_flips_probability(5, 8) + 0.02

    def test_mc_interface_error_matches_closed_form(self):
        estimate = mc_interface_error(4, 10, n_trials=20_000, rng=1)
        assert estimate == pytest.approx(expected_interface_error(4, 10), rel=0.1)

    @pytest.mark.parametrize("confidence", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("n_pairs", [4, 9, 16, 190])
    def test_bound_check_agrees_with_production(self, confidence, n_pairs):
        result = check_sampling_times_bound(confidence, n_pairs)
        assert result["holds_at_k"]
        assert result["fails_below_k"]
        assert result["k"] == required_sampling_times(n_pairs, confidence)
        # the integer k sits just above the real-valued bound
        assert result["k"] - 1 <= result["bound"] < result["k"]
