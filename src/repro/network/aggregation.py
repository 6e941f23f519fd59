"""Distributed sampling-vector assembly at cluster heads.

§4.3-2: "information is real-time aggregated and stored in the base
stations or in the cluster heads".  Centralized assembly ships every raw
sample to the base station; the distributed variant computes what it can
where the data lives:

* each cluster head receives its members' raw sample columns and computes
  the pair values for *intra-cluster* pairs exactly (Algorithm 1 on the
  local submatrix);
* for *cross-cluster* pairs, heads forward only each member's per-round
  summary (mean RSS over the group), and the base station compares means.

Cross-cluster pairs therefore lose flip information — a mean comparison
can't see that an ordering flipped within the group — which is a genuine
accuracy/traffic trade-off this module makes measurable.  Uplink traffic
drops from ``k`` samples per sensor to one summary per sensor plus the
(small) intra-cluster pair values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.vectors import extended_sampling_vector, mean_rss, sampling_vector
from repro.geometry.primitives import enumerate_pairs

__all__ = ["ClusterAssignment", "assign_clusters", "DistributedVectorAssembly"]


@dataclass(frozen=True)
class ClusterAssignment:
    """Which sensors belong to which cluster head."""

    head_of: np.ndarray  # (n,) cluster index per sensor
    heads: np.ndarray  # (H,) sensor index acting as head of each cluster

    @property
    def n_clusters(self) -> int:
        return len(self.heads)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.head_of == cluster)


def assign_clusters(nodes: np.ndarray, n_clusters: int, *, seed: int = 0) -> ClusterAssignment:
    """Geographic k-means clustering (at most 20 Lloyd iterations); the head
    is the member nearest the cluster centre (it pays the aggregation
    energy, cf. routing relay load)."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    n = len(nodes)
    if not (1 <= n_clusters <= n):
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(seed)
    centres = nodes[rng.choice(n, size=n_clusters, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(20):
        d = np.hypot(
            nodes[:, 0][:, None] - centres[:, 0][None, :],
            nodes[:, 1][:, None] - centres[:, 1][None, :],
        )
        new_assign = d.argmin(axis=1)
        if np.array_equal(new_assign, assign) and _ > 0:
            break
        assign = new_assign
        for c in range(n_clusters):
            members = nodes[assign == c]
            if len(members):
                centres[c] = members.mean(axis=0)
    heads = np.empty(n_clusters, dtype=np.int64)
    for c in range(n_clusters):
        members = np.flatnonzero(assign == c)
        if len(members) == 0:
            # claim the globally nearest unused sensor to keep heads valid
            free = np.setdiff1d(np.arange(n), heads[:c])
            members = free[:1]
            assign[members] = c
        dd = np.hypot(*(nodes[members] - centres[c]).T)
        heads[c] = members[int(np.argmin(dd))]
    return ClusterAssignment(head_of=assign, heads=heads)


@dataclass
class DistributedVectorAssembly:
    """Assemble a sampling vector from cluster-local computations.

    Parameters
    ----------
    clusters : the cluster assignment.
    n_sensors : total sensor count (vector layout).
    mode : ``"basic"`` or ``"extended"`` for the intra-cluster pair values.
    comparator_eps : RSS comparator deadband.
    """

    clusters: ClusterAssignment
    n_sensors: int
    mode: str = "basic"
    comparator_eps: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("basic", "extended"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.clusters.head_of) != self.n_sensors:
            raise ValueError("cluster assignment size does not match sensor count")
        i_idx, j_idx = enumerate_pairs(self.n_sensors)
        self._i_idx, self._j_idx = i_idx, j_idx
        same = self.clusters.head_of[i_idx] == self.clusters.head_of[j_idx]
        self._intra = same

    @property
    def intra_cluster_fraction(self) -> float:
        """Fraction of pairs computed exactly (inside one cluster)."""
        return float(self._intra.mean())

    def uplink_traffic_ratio(self, k: int) -> float:
        """Distributed uplink volume relative to centralized raw shipping.

        Centralized: n·k samples.  Distributed: n summaries + the
        intra-cluster pair values (1 value per intra pair).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        centralized = self.n_sensors * k
        distributed = self.n_sensors + int(self._intra.sum())
        return distributed / centralized

    def assemble(self, rss: np.ndarray) -> np.ndarray:
        """Build the vector the base station sees under distributed assembly.

        Intra-cluster pair values come from the full local submatrices
        (exact); cross-cluster values from group-mean comparisons (no flip
        information — a pair straddling clusters reads ±1 or, only when a
        silent sensor is involved, the Eq. 6 fill).
        """
        rss = np.atleast_2d(np.asarray(rss, dtype=float))
        if rss.shape[1] != self.n_sensors:
            raise ValueError(
                f"rss has {rss.shape[1]} sensors, expected {self.n_sensors}"
            )
        # exact values as-if-centralized, for the intra-cluster entries
        if self.mode == "extended":
            full = extended_sampling_vector(rss, comparator_eps=self.comparator_eps)
        else:
            full = sampling_vector(rss, comparator_eps=self.comparator_eps)

        out = np.empty_like(full)
        out[self._intra] = full[self._intra]

        # cross-cluster: compare forwarded group means
        means = mean_rss(rss)
        cross = ~self._intra
        mi = means[self._i_idx[cross]]
        mj = means[self._j_idx[cross]]
        with np.errstate(invalid="ignore"):
            # -inf - -inf = nan where both are silent; masked right after
            diff = np.where(np.isnan(mi), -np.inf, mi) - np.where(np.isnan(mj), -np.inf, mj)
            vals = np.where(np.isnan(mi) & np.isnan(mj), np.nan, np.sign(diff))
        # respect the comparator deadband on the mean comparison
        both = ~np.isnan(mi) & ~np.isnan(mj)
        with np.errstate(invalid="ignore"):
            tie = both & (np.abs(mi - mj) <= self.comparator_eps)
        vals = np.where(tie, 0.0, vals)
        out[cross] = vals
        return out
