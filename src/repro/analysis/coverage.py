"""Sensing-coverage analysis.

§5.2 builds its error bound on ``n = pi R^2 rho`` — how many sensors hear
the target.  These utilities compute the actual coverage field of a
deployment: per-point hearing counts, k-coverage fractions, and the
density/communication trade-off the paper's discussion raises ("too dense
deployment will worsen the communication ability ... as well as the
delay").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import Grid
from repro.geometry.primitives import pairwise_distances

__all__ = ["CoverageReport", "coverage_field", "coverage_report", "density_tradeoff"]


@dataclass(frozen=True)
class CoverageReport:
    """Summary of a deployment's sensing coverage."""

    n_sensors: int
    sensing_range_m: float
    mean_hearing_count: float
    min_hearing_count: int
    max_hearing_count: int
    k_coverage_fraction: dict[int, float]  # fraction of area heard by >= k sensors
    uncovered_fraction: float

    def supports_pairwise_tracking(self) -> bool:
        """Tracking needs >= 2 hearing sensors (one pair) essentially everywhere."""
        return self.k_coverage_fraction.get(2, 0.0) > 0.95


def coverage_field(nodes: np.ndarray, grid: Grid, sensing_range: float) -> np.ndarray:
    """Hearing count per grid cell, shape ``(n_cells,)``."""
    if sensing_range <= 0:
        raise ValueError(f"sensing range must be positive, got {sensing_range}")
    dist = pairwise_distances(grid.cell_centers, np.atleast_2d(nodes))
    return (dist <= sensing_range).sum(axis=1)


def coverage_report(nodes: np.ndarray, grid: Grid, sensing_range: float) -> CoverageReport:
    """Full coverage summary for a deployment over a rasterized field, with
    k-coverage fractions at ``k`` in 1, 2, 3 and 5."""
    counts = coverage_field(nodes, grid, sensing_range)
    return CoverageReport(
        n_sensors=len(np.atleast_2d(nodes)),
        sensing_range_m=sensing_range,
        mean_hearing_count=float(counts.mean()),
        min_hearing_count=int(counts.min()),
        max_hearing_count=int(counts.max()),
        k_coverage_fraction={k: float((counts >= k).mean()) for k in (1, 2, 3, 5)},
        uncovered_fraction=float((counts == 0).mean()),
    )


def density_tradeoff(
    n_values: "list[int] | np.ndarray",
    field_size: float,
    sensing_range: float,
    *,
    radio_range: float = 30.0,
    seed: int = 0,
) -> list[dict]:
    """The §5.2 trade-off, quantified: accuracy-side coverage vs
    communication-side relay load as density grows.

    For each n: deploy randomly, report mean hearing count (more = finer
    faces = better accuracy per Eq. 10) and the routing tree's bottleneck
    relay load / first-death lifetime (more sensors = more traffic through
    the nodes near the base station), priced by ``EnergyModel()``.  Coverage
    is counted on a 4 m raster.
    """
    from repro.network.deployment import random_deployment
    from repro.network.routing import build_routing_topology

    grid = Grid.square(field_size, 4.0)
    rows = []
    for i, n in enumerate(n_values):
        nodes = random_deployment(int(n), field_size, seed + i, min_separation=2.0)
        report = coverage_report(nodes, grid, sensing_range)
        topo = build_routing_topology(nodes, radio_range=radio_range)
        rows.append(
            {
                "n_sensors": int(n),
                "mean_hearing": report.mean_hearing_count,
                "two_coverage": report.k_coverage_fraction[2],
                "max_relay_load": int(topo.relay_counts.max()),
                "lifetime_rounds": topo.network_lifetime_rounds(),
                "disconnected": int((~topo.connected).sum()),
            }
        )
    return rows
