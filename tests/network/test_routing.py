"""Tests for repro.network.routing."""

import numpy as np
import pytest

from repro.analysis.energy import EnergyModel
from repro.network.deployment import grid_deployment, random_deployment
from repro.network.routing import build_routing_topology


class TestBuild:
    def test_connected_grid(self):
        nodes = grid_deployment(16, 100.0)
        topo = build_routing_topology(nodes, radio_range=40.0)
        assert topo.connected.all()
        assert np.all(topo.hop_depth >= 1)

    def test_node_next_to_bs_delivers_directly(self):
        nodes = np.array([[50.0, 50.0], [90.0, 90.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([50.0, 52.0]), radio_range=30.0
        )
        assert topo.next_hop[0] == -1
        assert topo.hop_depth[0] == 1

    def test_multi_hop_chain(self):
        nodes = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=12.0
        )
        assert topo.hop_depth.tolist() == [1.0, 2.0, 3.0]
        assert topo.next_hop.tolist() == [-1, 0, 1]

    def test_disconnected_node(self):
        nodes = np.array([[10.0, 0.0], [500.0, 500.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=20.0
        )
        assert topo.connected[0]
        assert not topo.connected[1]
        assert topo.next_hop[1] == -2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_routing_topology(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            build_routing_topology(np.zeros((2, 2)), radio_range=0.0)
        with pytest.raises(ValueError):
            build_routing_topology(np.zeros((2, 2)), per_hop_loss=1.0)


class TestDelivery:
    def test_delivery_probability_decays_with_depth(self):
        nodes = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=12.0, per_hop_loss=0.1
        )
        p = topo.delivery_probability()
        assert p[0] == pytest.approx(0.9)
        assert p[1] == pytest.approx(0.81)
        assert p[2] == pytest.approx(0.729)

    def test_disconnected_never_delivers(self):
        nodes = np.array([[10.0, 0.0], [500.0, 500.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=20.0
        )
        assert topo.delivery_probability()[1] == 0.0

    def test_drop_mask_statistics(self, rng):
        nodes = np.array([[10.0, 0.0], [20.0, 0.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=12.0, per_hop_loss=0.2
        )
        drops = np.stack([topo.drop_mask(r, rng) for r in range(4000)])
        assert drops[:, 0].mean() == pytest.approx(0.2, abs=0.03)
        assert drops[:, 1].mean() == pytest.approx(1 - 0.64, abs=0.03)


class TestEnergy:
    def test_relay_counts_chain(self):
        nodes = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=12.0
        )
        # node 0 relays for 1 and 2; node 1 relays for 2
        assert topo.relay_counts.tolist() == [2, 1, 0]

    def test_bottleneck_lifetime(self):
        nodes = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        topo = build_routing_topology(
            nodes, bs_position=np.array([0.0, 0.0]), radio_range=12.0
        )
        life = topo.network_lifetime_rounds(
            EnergyModel(report_tx_j=1.0, relay_tx_j=1.0, battery_j=3.0)
        )
        # node 0 spends 3 J per round (own + 2 relays)
        assert life == pytest.approx(1.0)
        life = topo.network_lifetime_rounds(
            EnergyModel(report_tx_j=1.0, relay_tx_j=0.5, battery_j=4.0)
        )
        # own report and relays are priced apart: 1 J + 2 x 0.5 J per round
        assert life == pytest.approx(2.0)

    def test_denser_network_shortens_bottleneck_lifetime(self, rng):
        """§5.2's discussion: more sensors = more relay traffic near the BS."""
        lifetimes = {}
        for n in (10, 40):
            nodes = random_deployment(n, 100.0, 5, min_separation=2.0)
            topo = build_routing_topology(
                nodes, bs_position=np.array([50.0, 50.0]), radio_range=30.0
            )
            lifetimes[n] = topo.network_lifetime_rounds()
        assert lifetimes[40] < lifetimes[10]
