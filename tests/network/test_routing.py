"""Tests for repro.network.routing."""

import numpy as np
import pytest

from repro.analysis.energy import EnergyModel
from repro.network.deployment import grid_deployment, random_deployment
from repro.network.routing import build_routing_topology

# a line of sensors whose centroid, the base station, is the origin
CHAIN = np.array([[x, 0.0] for x in (-30.0, -20.0, -10.0, 10.0, 20.0, 30.0)])
# two sensors out of radio range of the base station at the origin, two within
FAR_PAIR = np.array([[-500.0, 0.0], [500.0, 0.0], [-5.0, 0.0], [5.0, 0.0]])


class TestBuild:
    def test_connected_grid(self):
        nodes = grid_deployment(16, 100.0)
        topo = build_routing_topology(nodes, radio_range=40.0)
        assert topo.connected.all()
        assert np.all(topo.hop_depth >= 1)

    def test_node_next_to_bs_delivers_directly(self):
        nodes = np.array([[50.0, 50.0], [90.0, 90.0]])
        topo = build_routing_topology(nodes, radio_range=30.0)
        assert topo.next_hop[0] == -1
        assert topo.hop_depth[0] == 1

    def test_multi_hop_chain(self):
        topo = build_routing_topology(CHAIN, radio_range=12.0)
        assert topo.hop_depth.tolist() == [3.0, 2.0, 1.0, 1.0, 2.0, 3.0]
        assert topo.next_hop.tolist() == [1, 2, -1, -1, 3, 4]

    def test_disconnected_node(self):
        topo = build_routing_topology(FAR_PAIR, radio_range=20.0)
        assert topo.connected.tolist() == [False, False, True, True]
        assert topo.next_hop[0] == -2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_routing_topology(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            build_routing_topology(np.zeros((2, 2)), radio_range=0.0)


class TestDelivery:
    def test_delivery_probability_decays_with_depth(self):
        topo = build_routing_topology(CHAIN, radio_range=12.0)
        p = topo.delivery_probability()
        assert p.tolist() == pytest.approx([0.98**3, 0.98**2, 0.98, 0.98, 0.98**2, 0.98**3])

    def test_disconnected_never_delivers(self):
        topo = build_routing_topology(FAR_PAIR, radio_range=20.0)
        assert topo.delivery_probability()[0] == 0.0

    def test_drop_mask_statistics(self, rng):
        nodes = np.array([[-20.0, 0.0], [-10.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        topo = build_routing_topology(nodes, radio_range=12.0)
        drops = np.stack([topo.drop_mask(r, rng) for r in range(10000)])
        assert drops[:, 1].mean() == pytest.approx(0.02, abs=0.008)
        assert drops[:, 0].mean() == pytest.approx(1 - 0.98**2, abs=0.008)


class TestEnergy:
    def test_relay_counts_chain(self):
        topo = build_routing_topology(CHAIN, radio_range=12.0)
        # the nodes next to the base station relay for the two behind them
        assert topo.relay_counts.tolist() == [0, 1, 2, 2, 1, 0]

    def test_bottleneck_lifetime(self):
        topo = build_routing_topology(CHAIN, radio_range=12.0)
        m = EnergyModel()
        # the busiest node pays for its own report and two relays per round
        expected = m.battery_j / (m.report_tx_j + 2 * m.relay_tx_j)
        assert topo.network_lifetime_rounds() == pytest.approx(expected)

    def test_denser_network_shortens_bottleneck_lifetime(self, rng):
        """§5.2's discussion: more sensors = more relay traffic near the BS."""
        lifetimes = {}
        for n in (10, 40):
            nodes = random_deployment(n, 100.0, 5, min_separation=2.0)
            topo = build_routing_topology(nodes, radio_range=30.0)
            lifetimes[n] = topo.network_lifetime_rounds()
        assert lifetimes[40] < lifetimes[10]
