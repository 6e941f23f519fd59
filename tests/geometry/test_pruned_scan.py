"""The pruned face scan is the full scan, bit for bit.

``FaceMap._pruned_ties`` (partial-distance search over the pair columns)
must return exactly the ties and best distances of
``_ties(_sq_distances(q))``.  The tests call it directly, so the size
gate in front of it (``_PRUNE_MIN_ENTRIES``) does not hide it on small
maps, and then check ``match`` / ``match_many`` above the gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import GridConfig, SimulationConfig
from repro.core.vectors import sampling_vectors
from repro.geometry import faces
from repro.geometry.faces import FaceMap
from repro.network.faults import IndependentDropout
from repro.sim.runner import generate_batches
from repro.sim.scenario import make_scenario


def _world(n_sensors: int, cell_size_m: float, n_rounds: int, dropout: float):
    config = SimulationConfig(
        n_sensors=n_sensors, duration_s=60.0, grid=GridConfig(cell_size_m=cell_size_m)
    )
    scenario = make_scenario(config, seed=33)
    faults = IndependentDropout(p=dropout) if dropout else None
    batches = generate_batches(scenario, 7, faults=faults, n_rounds=n_rounds)
    stack = np.stack([b.rss for b in batches])
    vectors = sampling_vectors(stack, comparator_eps=config.resolution_dbm)
    return scenario.face_map, vectors.astype(np.float32)


@pytest.fixture(scope="module")
def world():
    """n=20 on 2.5 m cells (975 faces x 190 pairs): below the gate; the
    dropout leaves some rounds the bound cannot prune."""
    return _world(20, 2.5, 40, dropout=0.2)


@pytest.fixture(scope="module")
def dup_map(world):
    """The world's signatures with every fifth face repeated: multi-face ties."""
    fm, _ = world
    sigs = np.concatenate([fm.signatures, fm.signatures[::5]])
    F = len(sigs)
    return FaceMap(
        nodes=fm.nodes,
        grid=fm.grid,
        c=fm.c,
        signatures=sigs,
        centroids=np.zeros((F, 2)),
        cell_face=fm.cell_face,
        cell_counts=np.ones(F, dtype=np.int64),
        adj_indptr=np.zeros(F + 1, dtype=np.int64),
        adj_indices=np.zeros(0, dtype=np.int64),
    )


def _full(fm: FaceMap, V: np.ndarray):
    return fm._ties(fm._sq_distances(fm._query(V, False)))


def _assert_pruned_is_full(fm: FaceMap, V: np.ndarray) -> list[int]:
    """Compare the pruned search with the full scan, as one block and row by
    row; returns the faces scored in full in each row."""
    q = fm._query(V, False)
    assert q.exact
    ties, bests, scored = fm._pruned_ties(q)
    want_ties, want_bests = _full(fm, V)
    assert bests == want_bests
    assert len(ties) == len(want_ties) == len(V)
    for got, want in zip(ties, want_ties):
        assert np.array_equal(got, want)
    per_row = []
    for r in range(len(V)):
        one_ties, one_bests, one_scored = fm._pruned_ties(fm._query(V[r : r + 1], False))
        assert one_bests == [want_bests[r]]
        assert np.array_equal(one_ties[0], want_ties[r])
        per_row.append(one_scored)
    assert scored == len(V) * fm.n_faces or scored == sum(per_row)
    return per_row


class TestPrunedTies:
    def test_rows_with_stars(self, world):
        fm, V = world
        assert np.isnan(V).any(axis=1).sum() > len(V) // 2
        scored = _assert_pruned_is_full(fm, V)
        # both paths ran: rounds the bound pruned to a few faces, and
        # rounds completed over every face (as the block was)
        assert sum(n < fm.n_faces // 8 for n in scored) >= 5
        assert sum(n == fm.n_faces for n in scored) >= 5

    def test_unprunable_rounds_finish_with_one_gemm(self, world, monkeypatch):
        """With the limit at infinity every round keeps every face, so the
        block is finished by a GEMM over all faces."""
        fm, V = world
        monkeypatch.setattr(FaceMap, "tie_tolerance", lambda self, best: float("inf"))
        ties, bests, scored = fm._pruned_ties(fm._query(V, False))
        assert scored == len(V) * fm.n_faces
        assert all(len(t) == fm.n_faces for t in ties)
        assert bests == _full(fm, V)[1]

    def test_rows_without_stars(self, world):
        fm, V = world
        plain = np.nan_to_num(V, nan=0.0)
        assert not np.isnan(plain).any()
        _assert_pruned_is_full(fm, plain)

    def test_all_star_row(self, world):
        fm, V = world
        block = V[:5].copy()
        block[2] = np.nan
        _assert_pruned_is_full(fm, block)
        ties, bests, _ = fm._pruned_ties(fm._query(block[2:3], False))
        assert bests == [0.0]
        assert np.array_equal(ties[0], np.arange(fm.n_faces))

    def test_exact_hits(self, world, dup_map):
        fm, _ = world
        faces_hit = [0, 5, 17, fm.n_faces - 1]
        V = fm.signatures[faces_hit].astype(np.float32)
        _assert_pruned_is_full(fm, V)
        ties, bests, _ = fm._pruned_ties(fm._query(V, False))
        assert bests == [0.0] * len(faces_hit)
        assert [t.tolist() for t in ties] == [[f] for f in faces_hit]
        # on the map with repeated signatures an exact hit ties its copy
        ties, bests, _ = dup_map._pruned_ties(dup_map._query(V, False))
        assert bests == [0.0] * len(faces_hit)
        assert ties[0].tolist() == [0, fm.n_faces]
        _assert_pruned_is_full(dup_map, V)

    def test_duplicate_signatures_tie(self, world, dup_map):
        _, V = world
        _assert_pruned_is_full(dup_map, V)
        ties, _, _ = dup_map._pruned_ties(dup_map._query(V, False))
        assert any(len(t) > 1 for t in ties)

    def test_wider_tie_tolerance_keeps_every_tie(self, world, monkeypatch):
        """The cuts compare with ``ub + tie_tolerance(ub)``: a tolerance of
        several units admits ties at distinct integer distances, and each
        of them must survive every cut."""
        fm, V = world
        monkeypatch.setattr(
            FaceMap, "tie_tolerance", lambda self, best: 0.0 if best == 0.0 else 2.5
        )
        _assert_pruned_is_full(fm, V)
        d2 = fm._sq_distances(fm._query(V, False))
        ties, bests, _ = fm._pruned_ties(fm._query(V, False))
        assert any(d2[r, t].max() > bests[r] for r, t in enumerate(ties))

    def test_block_split(self, world, monkeypatch):
        fm, V = world
        want_ties, want_bests = _full(fm, V)
        monkeypatch.setattr(faces, "_PRUNE_MIN_ENTRIES", 0)
        monkeypatch.setattr(faces, "_GEMM_TEMP_BYTES", 4 * fm.n_faces * 3)
        assert fm._block_rows() == 3
        ties, bests = fm.match_many(V)
        assert bests.tolist() == want_bests
        for got, want in zip(ties, want_ties):
            assert np.array_equal(got, want)


class TestAboveTheGate:
    @pytest.fixture(scope="class")
    def big(self):
        """n=30 on 1 m cells: about 2.4 M signature entries."""
        return _world(30, 1.0, 12, dropout=0.0)

    def test_gate_is_on(self, big):
        fm, _ = big
        assert fm.n_faces * fm.n_pairs >= faces._PRUNE_MIN_ENTRIES

    def test_match_and_match_many_equal_full_scan_loop(self, big):
        fm, V = big
        want = [_full(fm, V[r : r + 1]) for r in range(len(V))]
        ties, bests = fm.match_many(V)
        for r, (want_ties, want_bests) in enumerate(want):
            one_ties, one_best = fm.match(V[r])
            assert np.array_equal(one_ties, want_ties[0]) and one_best == want_bests[0]
            assert np.array_equal(ties[r], want_ties[0]) and bests[r] == want_bests[0]

    def test_scored_faces_counter(self, big, world):
        fm, V = big
        with obs.observe() as reg:
            fm.match_many(V)
            scored = reg.snapshot()["geometry.match.scored_faces"]["value"]
        assert 0 < scored < len(V) * fm.n_faces // 4
        small, W = world
        with obs.observe() as reg:
            small.match_many(W)
            small.match(W[0])
            snap = reg.snapshot()
        assert snap["geometry.match.scored_faces"]["value"] == (len(W) + 1) * small.n_faces
        assert snap["geometry.match.candidate_faces"]["value"] == small.n_faces
