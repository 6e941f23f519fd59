"""Tests for repro.analysis.coverage."""

import numpy as np
import pytest

from repro.analysis.coverage import coverage_field, coverage_report, density_tradeoff
from repro.geometry.grid import Grid
from repro.network.deployment import grid_deployment


class TestCoverageField:
    def test_counts_within_range(self, four_nodes):
        grid = Grid.square(100.0, 5.0)
        counts = coverage_field(four_nodes, grid, 40.0)
        assert counts.shape == (grid.n_cells,)
        assert counts.max() <= 4
        # the field centre hears all four sensors (distance ~28 m)
        centre_cell = grid.cell_of(np.array([[50.0, 50.0]]))[0]
        assert counts[centre_cell] == 4

    def test_zero_range_rejected(self, four_nodes):
        with pytest.raises(ValueError):
            coverage_field(four_nodes, Grid.square(100.0, 5.0), 0.0)

    def test_corners_hear_fewer(self, four_nodes):
        grid = Grid.square(100.0, 5.0)
        counts = coverage_field(four_nodes, grid, 40.0)
        corner_cell = grid.cell_of(np.array([[2.0, 2.0]]))[0]
        centre_cell = grid.cell_of(np.array([[50.0, 50.0]]))[0]
        assert counts[corner_cell] < counts[centre_cell]


class TestCoverageReport:
    def test_report_fields(self, four_nodes):
        report = coverage_report(four_nodes, Grid.square(100.0, 5.0), 40.0)
        assert report.n_sensors == 4
        assert 0 <= report.uncovered_fraction <= 1
        assert report.k_coverage_fraction[1] >= report.k_coverage_fraction[2]
        assert report.min_hearing_count <= report.mean_hearing_count <= report.max_hearing_count

    def test_k_coverage_monotone(self, four_nodes):
        report = coverage_report(four_nodes, Grid.square(100.0, 5.0), 40.0)
        fractions = [report.k_coverage_fraction[k] for k in (1, 2, 3, 5)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_dense_grid_supports_tracking(self):
        nodes = grid_deployment(25, 100.0)
        report = coverage_report(nodes, Grid.square(100.0, 5.0), 40.0)
        assert report.supports_pairwise_tracking()

    def test_sparse_does_not(self):
        nodes = np.array([[10.0, 10.0], [90.0, 90.0]])
        report = coverage_report(nodes, Grid.square(100.0, 5.0), 20.0)
        assert not report.supports_pairwise_tracking()


class TestDensityTradeoff:
    def test_rows_and_directions(self):
        rows = density_tradeoff([8, 32], 100.0, 40.0, seed=3)
        assert len(rows) == 2
        sparse, dense = rows
        # accuracy side improves with density...
        assert dense["mean_hearing"] > sparse["mean_hearing"]
        assert dense["two_coverage"] >= sparse["two_coverage"]
        # ...communication side worsens (the paper's trade-off)
        assert dense["max_relay_load"] >= sparse["max_relay_load"]
        assert dense["lifetime_rounds"] <= sparse["lifetime_rounds"]
