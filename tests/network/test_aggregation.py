"""Tests for repro.network.aggregation — distributed vector assembly."""

import numpy as np
import pytest

from repro.core.vectors import sampling_vector
from repro.network.aggregation import (
    DistributedVectorAssembly,
    assign_clusters,
)
from repro.network.deployment import grid_deployment


class TestAssignClusters:
    def test_every_sensor_assigned(self):
        nodes = grid_deployment(16, 100.0)
        ca = assign_clusters(nodes, 4, seed=0)
        assert ca.head_of.shape == (16,)
        assert set(ca.head_of.tolist()) == {0, 1, 2, 3}
        assert ca.n_clusters == 4

    def test_heads_are_members_of_their_cluster(self):
        nodes = grid_deployment(16, 100.0)
        ca = assign_clusters(nodes, 4, seed=0)
        for c in range(4):
            assert ca.head_of[ca.heads[c]] == c

    def test_single_cluster(self):
        nodes = grid_deployment(9, 100.0)
        ca = assign_clusters(nodes, 1, seed=0)
        assert (ca.head_of == 0).all()

    def test_clusters_are_geographic(self):
        nodes = grid_deployment(16, 100.0)
        ca = assign_clusters(nodes, 4, seed=0)
        # mean intra-cluster distance < mean cross-cluster distance
        diff = nodes[:, None, :] - nodes[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        same = ca.head_of[:, None] == ca.head_of[None, :]
        np.fill_diagonal(same, False)
        off = ~same
        np.fill_diagonal(off, False)
        assert d[same].mean() < d[off].mean()

    def test_validation(self):
        nodes = grid_deployment(4, 100.0)
        with pytest.raises(ValueError):
            assign_clusters(nodes, 0)
        with pytest.raises(ValueError):
            assign_clusters(nodes, 5)


class TestDistributedAssembly:
    @pytest.fixture
    def setup(self):
        nodes = grid_deployment(9, 100.0)
        ca = assign_clusters(nodes, 3, seed=1)
        asm = DistributedVectorAssembly(ca, n_sensors=9)
        return nodes, ca, asm

    def test_intra_pairs_exact(self, setup, rng):
        nodes, ca, asm = setup
        rss = rng.normal(-60, 8, size=(5, 9))
        dist = asm.assemble(rss)
        central = sampling_vector(rss)
        intra = asm._intra
        assert np.array_equal(dist[intra], central[intra])

    def test_cross_pairs_lose_flip_information(self, setup):
        nodes, ca, asm = setup
        # engineer a flip on a cross-cluster pair
        from repro.geometry.primitives import enumerate_pairs

        i_idx, j_idx = enumerate_pairs(9)
        cross_pairs = np.flatnonzero(~asm._intra)
        assert len(cross_pairs) > 0
        p = int(cross_pairs[0])
        i, j = int(i_idx[p]), int(j_idx[p])
        rss = np.full((4, 9), -80.0)
        rss[:, i] = [-50.0, -50.0, -50.0, -56.0]
        rss[:, j] = [-52.0, -52.0, -52.0, -52.0]  # flips on the last sample
        central = sampling_vector(rss)
        dist = asm.assemble(rss)
        assert central[p] == 0.0  # centralized sees the flip
        assert dist[p] == 1.0  # distributed mean comparison does not

    def test_all_silent_pair_is_star(self, setup):
        nodes, ca, asm = setup
        rss = np.full((3, 9), np.nan)
        rss[:, 0] = -50.0
        vec = asm.assemble(rss)
        central = sampling_vector(rss)
        assert np.array_equal(np.isnan(vec), np.isnan(central))

    def test_traffic_ratio_below_one(self, setup):
        _, _, asm = setup
        ratio = asm.uplink_traffic_ratio(k=5)
        assert 0.0 < ratio < 1.0

    def test_more_clusters_less_intra(self):
        nodes = grid_deployment(16, 100.0)
        f2 = DistributedVectorAssembly(assign_clusters(nodes, 2, seed=0), 16).intra_cluster_fraction
        f8 = DistributedVectorAssembly(assign_clusters(nodes, 8, seed=0), 16).intra_cluster_fraction
        assert f8 < f2

    def test_tracking_accuracy_cost_is_modest(self, fast_config):
        """End to end: distributed assembly costs some accuracy, not collapse."""
        from repro.core.matching import ExhaustiveMatcher
        from repro.sim.runner import generate_batches
        from repro.sim.scenario import make_scenario

        cfg = fast_config.with_(n_sensors=12, duration_s=12.0)
        scenario = make_scenario(cfg, seed=6)
        batches = generate_batches(scenario, 7)
        ca = assign_clusters(scenario.nodes, 3, seed=0)
        asm = DistributedVectorAssembly(ca, 12, comparator_eps=cfg.resolution_dbm)
        matcher = ExhaustiveMatcher(scenario.face_map)
        central_tracker = scenario.make_tracker("fttt-exhaustive")
        errs_central, errs_dist = [], []
        for batch in batches:
            est_c = central_tracker.localize_batch(batch)
            errs_central.append(np.hypot(*(est_c.position - batch.mean_position)))
            v = asm.assemble(batch.rss)
            m = matcher.match(v)
            errs_dist.append(np.hypot(*(m.position - batch.mean_position)))
        assert np.mean(errs_dist) < np.mean(errs_central) * 2.5 + 3.0

    def test_validation(self):
        nodes = grid_deployment(4, 100.0)
        ca = assign_clusters(nodes, 2, seed=0)
        with pytest.raises(ValueError, match="mode"):
            DistributedVectorAssembly(ca, 4, mode="bogus")
        with pytest.raises(ValueError, match="size"):
            DistributedVectorAssembly(ca, 5)
        asm = DistributedVectorAssembly(ca, 4)
        with pytest.raises(ValueError):
            asm.uplink_traffic_ratio(0)
        with pytest.raises(ValueError, match="sensors"):
            asm.assemble(np.zeros((2, 7)))
