"""Cluster-head election and multi-hop report forwarding.

The paper aggregates sensing results "in the base stations or in the
cluster heads" (§4.3-2).  This substrate models the report path: sensors
attach to the nearest cluster head within radio range, heads forward to
the base station over a shortest-hop tree, and every radio hop loses a
report independently — so a sensor's effective delivery probability decays
with its hop depth.  The energy cost of relaying is charged per forwarded
report, from the same ``analysis.energy.EnergyModel`` table the lifetime
projections use, which is what makes "too dense deployment will worsen the
communication ability" (§5.2) a measurable statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.energy import EnergyModel

__all__ = ["RoutingTopology", "build_routing_topology"]


@dataclass
class RoutingTopology:
    """A routed WSN: per-node next hops toward the base station.

    Attributes
    ----------
    positions : (n, 2) sensor positions; the base station is a virtual
        node at ``bs_position``, the deployment's centroid.
    next_hop : (n,) index of each node's parent (-1 = delivers straight
        to the base station, -2 = disconnected).
    hop_depth : (n,) radio hops from node to base station (np.inf when
        disconnected).
    per_hop_loss : report loss probability per radio hop.
    """

    positions: np.ndarray
    bs_position: np.ndarray
    next_hop: np.ndarray
    hop_depth: np.ndarray
    per_hop_loss: float
    relay_counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.positions)
        counts = np.zeros(n, dtype=np.int64)
        for node in range(n):
            hop = self.next_hop[node]
            seen = 0
            while hop >= 0:
                counts[hop] += 1
                hop = self.next_hop[hop]
                seen += 1
                if seen > n:
                    raise AssertionError("routing loop detected")
        self.relay_counts = counts

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    @property
    def connected(self) -> np.ndarray:
        return np.isfinite(self.hop_depth)

    def delivery_probability(self) -> np.ndarray:
        """Per-node probability that one report survives all its hops."""
        p = np.where(self.connected, (1.0 - self.per_hop_loss) ** self.hop_depth, 0.0)
        return p

    def drop_mask(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        """Sample which sensors' reports are lost this round (True = lost).

        Losses are drawn per *hop* so siblings sharing a dead relay link
        are NOT correlated here — each report traverses the tree at its
        own instant; per-report independence is the standard assumption.
        """
        u = rng.random(self.n_nodes)
        return u >= self.delivery_probability()

    def network_lifetime_rounds(self) -> float:
        """Rounds until the busiest node exhausts its battery (classic
        first-node-death lifetime): every round each connected node sends
        its own report and forwards ``relay_counts`` others, at the costs
        of ``EnergyModel()``."""
        model = EnergyModel()
        per_round = self.connected * model.report_tx_j + self.relay_counts * model.relay_tx_j
        busiest = per_round.max()
        if busiest <= 0:
            return float("inf")
        return float(model.battery_j / busiest)


def build_routing_topology(
    positions: np.ndarray,
    *,
    radio_range: float = 30.0,
) -> RoutingTopology:
    """Shortest-hop routing tree toward a base station at the deployment's
    centroid.

    Nodes within ``radio_range`` of each other (or of the base station)
    share a link; each node's parent is its neighbour on a shortest hop
    path.  Every hop loses a report with probability 0.02.  Disconnected
    nodes never deliver (their reports become the fault-tolerance path's
    problem).
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n = len(positions)
    if n < 1:
        raise ValueError("need at least one sensor")
    if radio_range <= 0:
        raise ValueError(f"radio range must be positive, got {radio_range}")
    bs_position = positions.mean(axis=0)

    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    bs = "BS"
    graph.add_node(bs)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= radio_range:
                graph.add_edge(i, j)
        if np.hypot(*(positions[i] - bs_position)) <= radio_range:
            graph.add_edge(i, bs)

    next_hop = np.full(n, -2, dtype=np.int64)
    hop_depth = np.full(n, np.inf)
    lengths, paths = nx.single_source_dijkstra(graph, bs)
    for node in range(n):
        if node in lengths:
            hop_depth[node] = lengths[node]
            parent = paths[node][-2]  # the hop before this node on the BS path
            next_hop[node] = -1 if parent == bs else int(parent)
    return RoutingTopology(
        positions=positions,
        bs_position=bs_position,
        next_hop=next_hop,
        hop_depth=hop_depth,
        per_hop_loss=0.02,
    )
