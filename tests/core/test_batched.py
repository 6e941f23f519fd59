"""Batched kernels are bit-identical to the serial per-round paths.

The whole point of the performance layer is that it must not change a
single bit of any result: these tests pin the batched Algorithm-1 vector
construction, the GEMM matching expansion (including NaN fault masks and
sensing-range-gated signatures), and the trace-level tracker paths to
their per-round equivalents with exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.baselines.sequences import sign_vector_from_rss, sign_vectors_from_rss
from repro.config import GridConfig, SimulationConfig
from repro.core.matching import ExhaustiveMatcher
from repro.core.tracker import TrackResult
from repro.core.vectors import (
    extended_sampling_vector,
    extended_sampling_vectors,
    sampling_vector,
    sampling_vectors,
)
from repro.geometry import faces
from repro.geometry.faces import build_face_map
from repro.network.faults import IndependentDropout
from repro.rf.channel import SampleBatch
from repro.sim.runner import generate_batches
from repro.sim.scenario import make_scenario

CFG = SimulationConfig(n_sensors=10, duration_s=20.0, grid=GridConfig(cell_size_m=2.5))


def _drop_samples(batch: SampleBatch, n: int) -> SampleBatch:
    """*batch* without its last *n* sample instants."""
    keep = len(batch.times) - n
    return SampleBatch(
        rss=batch.rss[:keep], times=batch.times[:keep], positions=batch.positions[:keep]
    )


@pytest.fixture(scope="module")
def world():
    scenario = make_scenario(CFG, seed=11)
    batches = generate_batches(scenario, 12, faults=IndependentDropout(p=0.25), n_rounds=30)
    stack = np.stack([b.rss for b in batches])
    return scenario, batches, stack


class TestBatchedVectors:
    def test_basic_identical_to_loop(self, world):
        _, _, stack = world
        loop = np.stack([sampling_vector(r, comparator_eps=1.0) for r in stack])
        batched = sampling_vectors(stack, comparator_eps=1.0)
        assert np.array_equal(loop, batched, equal_nan=True)

    def test_extended_identical_to_loop(self, world):
        _, _, stack = world
        loop = np.stack([extended_sampling_vector(r, comparator_eps=1.0) for r in stack])
        batched = extended_sampling_vectors(stack, comparator_eps=1.0)
        assert np.array_equal(loop, batched, equal_nan=True)

    def test_total_silence_star_fill(self):
        rss = np.full((4, 5, 6), -60.0)
        rss[2, :, :3] = np.nan  # three silent sensors: *, +1/-1 fills exercised
        rss[3, :, :] = np.nan  # everyone silent: all-star round
        loop = np.stack([sampling_vector(r) for r in rss])
        batched = sampling_vectors(rss)
        assert np.array_equal(loop, batched, equal_nan=True)
        assert np.isnan(batched[3]).all()

    def test_single_round_promotes(self):
        rss = np.random.default_rng(0).normal(-55.0, 3.0, size=(5, 6))
        assert np.array_equal(sampling_vectors(rss)[0], sampling_vector(rss), equal_nan=True)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            sampling_vectors(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="two sensors"):
            sampling_vectors(np.zeros((3, 4, 1)))

    def test_sign_vectors_identical_to_loop(self, world):
        _, _, stack = world
        loop = np.stack([sign_vector_from_rss(r) for r in stack])
        assert np.array_equal(loop, sign_vectors_from_rss(stack), equal_nan=True)


class TestBatchedDistances:
    def test_identical_with_nan_masks(self, world):
        scenario, _, stack = world
        fm = scenario.face_map
        vectors = sampling_vectors(stack, comparator_eps=1.0)
        loop = np.stack([fm.distances_to(v) for v in vectors])
        batched = fm.distances_to_many(vectors)
        assert batched.dtype == loop.dtype
        assert np.array_equal(loop, batched)

    @pytest.mark.parametrize("silent", [0, 3])
    def test_face_subset_equals_full_row(self, world, silent):
        """Scoring only some faces (an Algorithm 2 ring) gives the full
        scan's values at those faces, with and without ``*`` components."""
        scenario, _, stack = world
        fm = scenario.face_map
        rss = np.where(np.isnan(stack), -90.0, stack)  # every sensor reports
        rss[:, :, :silent] = np.nan
        face_ids = np.random.default_rng(4).permutation(fm.n_faces)[: fm.n_faces // 3]
        for v in sampling_vectors(rss, comparator_eps=1.0):
            q = fm._query(v.astype(np.float32)[None], False)
            assert q.exact  # the exact path
            assert (q.mask is not None) == (silent > 1)
            full = fm._sq_distances(q)[0]
            assert np.array_equal(fm._sq_distances(q, face_ids)[0], full[face_ids])

    def test_identical_on_sensing_range_gated_map(self, four_nodes, small_grid):
        fm = build_face_map(four_nodes, small_grid, 1.5, sensing_range=45.0)
        rng = np.random.default_rng(3)
        vectors = fm.signatures[rng.integers(0, fm.n_faces, size=50)].astype(float)
        vectors[rng.random(vectors.shape) < 0.2] = np.nan
        loop = np.stack([fm.distances_to(v) for v in vectors])
        assert np.array_equal(loop, fm.distances_to_many(vectors))

    def test_fractional_vectors_take_exact_fallback(self, world):
        scenario, _, stack = world
        fm = scenario.face_map
        vectors = extended_sampling_vectors(stack, comparator_eps=1.0)
        loop = np.stack([fm.distances_to(v) for v in vectors])
        assert np.array_equal(loop, fm.distances_to_many(vectors))

    def test_soft_signatures_identical(self, world):
        from repro.core.extended import attach_soft_signatures

        scenario, _, stack = world
        fm = scenario.face_map
        attach_soft_signatures(
            fm,
            path_loss_exponent=CFG.path_loss_exponent,
            noise_sigma_dbm=CFG.noise_sigma_dbm,
            resolution_dbm=CFG.resolution_dbm,
            sensing_range=CFG.sensing_range_m,
        )
        vectors = extended_sampling_vectors(stack, comparator_eps=1.0)
        ties, bests = fm.match_many(vectors, soft=True)
        for v, t, best in zip(vectors, ties, bests):
            t_loop, best_loop = fm.match(v, soft=True)
            assert np.array_equal(t, t_loop)
            assert best == best_loop

    def test_match_many_ties_identical(self, world):
        scenario, _, stack = world
        fm = scenario.face_map
        vectors = sampling_vectors(stack, comparator_eps=1.0)
        ties, bests = fm.match_many(vectors)
        for v, t, best in zip(vectors, ties, bests):
            t_loop, best_loop = fm.match(v)
            assert np.array_equal(t, t_loop)
            assert best == best_loop
        # a single match is row 0 of a one-row batch; each call keeps its own
        # obs counters (a batch also counts as batched rounds)
        for v in vectors[:5]:
            with obs.observe() as reg:
                t_one, best_one = fm.match(v)
            single = reg.snapshot()
            with obs.observe() as reg:
                t_many, best_many = fm.match_many(v[None])
            batched = reg.snapshot()
            assert np.array_equal(t_one, t_many[0])
            assert best_one == best_many[0]
            assert single["geometry.match.rounds"]["value"] == 1
            assert "geometry.match.batched_rounds" not in single
            assert batched["geometry.match.rounds"]["value"] == 1
            assert batched["geometry.match.batched_rounds"]["value"] == 1
            assert single["geometry.match.ties"] == batched["geometry.match.ties"]

    def test_shape_validation(self, face_map):
        with pytest.raises(ValueError, match="expected"):
            face_map.distances_to_many(np.zeros((3, face_map.n_pairs + 1)))


class TestBatchedTrackers:
    def _loop_track(self, tracker, batches):
        tracker.reset()
        result = TrackResult()
        for b in batches:
            result.append(tracker.localize_batch(b), b.mean_position)
        return result

    def _assert_tracks_equal(self, a, b):
        assert len(a) == len(b)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.truth, b.truth)
        for x, y in zip(a.estimates, b.estimates):
            assert x.t == y.t
            assert np.array_equal(x.face_ids, y.face_ids)
            assert x.sq_distance == y.sq_distance
            assert x.n_reporting == y.n_reporting
            assert x.visited_faces == y.visited_faces

    def test_fttt_exhaustive_trace_identical(self, world):
        scenario, batches, _ = world
        tracker = scenario.make_tracker("fttt-exhaustive")
        tracker.reset()
        batched = tracker.track(batches)
        self._assert_tracks_equal(batched, self._loop_track(tracker, batches))

    def test_direct_mle_trace_identical(self, world):
        scenario, batches, _ = world
        tracker = scenario.make_tracker("direct-mle")
        batched = tracker.track(batches)
        self._assert_tracks_equal(batched, self._loop_track(tracker, batches))

    def test_exhaustive_matcher_match_many(self, world):
        scenario, _, stack = world
        fm = scenario.face_map
        matcher = ExhaustiveMatcher(fm)
        vectors = sampling_vectors(stack, comparator_eps=1.0)
        for v, res in zip(vectors, matcher.match_many(vectors)):
            single = matcher.match(v)
            assert np.array_equal(res.face_ids, single.face_ids)
            assert res.sq_distance == single.sq_distance
            assert np.array_equal(res.position, single.position)
            assert res.visited == single.visited

    def test_heuristic_tracker_unaffected_by_batching(self, world):
        # the heuristic matcher (Algorithm 2) and the degradation policy are
        # stateful: batching the vectors must keep the per-round semantics,
        # also when the rounds carry different sample counts
        scenario, batches, _ = world
        ragged = [_drop_samples(b, i % 3) for i, b in enumerate(batches)]
        for name in ("fttt", "fttt-extended", "fttt-robust", "fttt-zero"):
            for trace in (batches, ragged):
                tracker = scenario.make_tracker(name)
                tracker.reset()
                a = tracker.track(trace)
                b = self._loop_track(tracker, trace)
                self._assert_tracks_equal(a, b)

    @pytest.mark.parametrize("name", ["fttt", "fttt-robust", "fttt-zero", "fttt-exhaustive"])
    def test_track_builds_vectors_once(self, world, name, monkeypatch):
        scenario, batches, _ = world
        tracker = scenario.make_tracker(name)
        calls = []
        build_vectors = tracker.build_vectors

        def counting(rss_stack):
            calls.append(np.shape(rss_stack))
            return build_vectors(rss_stack)

        monkeypatch.setattr(tracker, "build_vectors", counting)
        tracker.track(batches)
        assert calls == [np.shape(np.stack([b.rss for b in batches]))]

    def test_pm_viterbi_identical_to_pre_batched_decode(self, world):
        # PM's batched emissions must reproduce the per-round scores the
        # Viterbi decode consumed before batching
        scenario, batches, _ = world
        tracker = scenario.make_tracker("pm")
        fm = tracker.face_map
        result = tracker.track(batches)
        for batch, est in zip(batches, result.estimates):
            vector = tracker.build_vector(np.asarray(batch.rss, dtype=float))
            d2 = fm.distances_to(vector)
            assert est.sq_distance == float(d2[int(est.face_ids[0])])


class TestChunkedMatching:
    """Satellite: distances_to_many / match_many block over the trace axis.

    The block size is ``_GEMM_TEMP_BYTES // (4 * F)`` rows; the tests set
    the byte budget so the blocks hold exactly ``chunk_rows`` rows.
    """

    def _vectors(self, face_map, rng, n):
        idx = rng.integers(0, face_map.n_faces, size=n)
        return face_map.signatures[idx].astype(np.float32)

    def _set_block_rows(self, monkeypatch, face_map, chunk_rows):
        monkeypatch.setattr(faces, "_GEMM_TEMP_BYTES", 4 * face_map.n_faces * chunk_rows)
        assert face_map._block_rows() == chunk_rows

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 10_000])
    def test_distances_to_many_invariant(self, face_map, rng, chunk_rows, monkeypatch):
        V = self._vectors(face_map, rng, 23)
        base = face_map.distances_to_many(V)
        self._set_block_rows(monkeypatch, face_map, chunk_rows)
        chunked = face_map.distances_to_many(V)
        assert np.array_equal(base, chunked, equal_nan=True)

    @pytest.mark.parametrize("chunk_rows", [1, 5, 10_000])
    def test_match_many_invariant(self, face_map, rng, chunk_rows, monkeypatch):
        V = self._vectors(face_map, rng, 23)
        base_ties, base_best = face_map.match_many(V)
        self._set_block_rows(monkeypatch, face_map, chunk_rows)
        ties, best = face_map.match_many(V)
        assert np.array_equal(base_best, best)
        assert len(base_ties) == len(ties)
        for a, b in zip(base_ties, ties):
            assert np.array_equal(a, b)

    def test_default_chunk_is_bounded(self, face_map):
        # the default must keep the GEMM temp under the documented cap
        chunk = face_map._block_rows()
        assert chunk * face_map.n_faces * 4 <= 256 * 1024 * 1024
        assert chunk >= 1


class TestBatchedCensus:
    def test_census_identical_to_per_trial_matching(self, face_map):
        from repro.core.diagnostics import ambiguity_census
        from repro.rng import ensure_rng

        census = ambiguity_census(face_map, n_trials=60, corruption=2, rng=0)
        # replay the identical RNG stream and match per trial
        gen = ensure_rng(0)
        ties = []
        for _ in range(60):
            fid = int(gen.integers(0, face_map.n_faces))
            v = face_map.signatures[fid].astype(float)
            for idx in gen.integers(0, face_map.n_pairs, size=2):
                step = gen.choice([-1.0, 1.0])
                v[idx] = float(np.clip(v[idx] + step, -1.0, 1.0))
            tied, _ = face_map.match(v)
            ties.append(len(tied))
        ties = np.asarray(ties)
        tied_mask = ties > 1
        assert census.tie_fraction == float(tied_mask.mean())
        assert census.max_tie_size == int(ties.max())
