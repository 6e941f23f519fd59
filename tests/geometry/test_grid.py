"""Tests for repro.geometry.grid."""

import numpy as np
import pytest

from repro.geometry.grid import Grid


class TestConstruction:
    def test_square_factory(self):
        g = Grid.square(100.0, 2.0)
        assert g.width == g.height == 100.0
        assert g.nx == g.ny == 50

    def test_cell_count(self):
        g = Grid(10.0, 20.0, 2.0)
        assert g.nx == 5 and g.ny == 10
        assert g.n_cells == 50
        assert g.shape == (10, 5)

    def test_non_divisible_extent_rounds_up(self):
        g = Grid(10.0, 10.0, 3.0)
        assert g.nx == 4  # 3 full cells + partial

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            Grid(0.0, 10.0, 1.0)

    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            Grid(10.0, 10.0, 0.0)

    def test_rejects_cell_larger_than_field(self):
        with pytest.raises(ValueError, match="exceeds"):
            Grid(10.0, 10.0, 11.0)


class TestCellCenters:
    def test_first_and_last_centers(self):
        g = Grid.square(10.0, 2.0)
        centers = g.cell_centers
        assert np.allclose(centers[0], [1.0, 1.0])
        assert np.allclose(centers[-1], [9.0, 9.0])

    def test_center_count_matches(self):
        g = Grid.square(10.0, 1.0)
        assert g.cell_centers.shape == (100, 2)

    def test_all_centers_inside_field(self):
        g = Grid(13.0, 7.0, 2.0)
        c = g.cell_centers
        assert np.all(c[:, 0] > 0) and np.all(c[:, 1] > 0)


class TestIndexing:
    def test_roundtrip_center_of_cell_of(self):
        g = Grid.square(20.0, 2.0)
        centers = g.cell_centers
        idx = g.cell_of(centers)
        assert np.array_equal(idx, np.arange(g.n_cells))

    def test_points_clipped_into_field(self):
        g = Grid.square(10.0, 1.0)
        idx = g.cell_of(np.array([[-5.0, -5.0], [50.0, 50.0]]))
        assert idx[0] == 0
        assert idx[1] == g.n_cells - 1

    def test_flat_order_is_row_major_in_y(self):
        g = Grid.square(4.0, 1.0)
        # cell (ix=1, iy=2) -> flat = 2*4+1 = 9
        assert g.cell_of(np.array([[1.5, 2.5]]))[0] == 9


class TestNeighborPairs:
    def test_edge_count(self):
        g = Grid.square(4.0, 1.0)  # 4x4 grid
        a, b = g.neighbor_pairs()
        # horizontal: 4 rows * 3, vertical: 3 * 4 = 24 total
        assert len(a) == 24

    def test_all_pairs_are_adjacent(self):
        g = Grid.square(6.0, 1.0)
        a, b = g.neighbor_pairs()
        ca, cb = g.cell_centers[a], g.cell_centers[b]
        d = np.hypot(ca[:, 0] - cb[:, 0], ca[:, 1] - cb[:, 1])
        assert np.allclose(d, g.cell_size)

    def test_a_less_than_b(self):
        g = Grid.square(5.0, 1.0)
        a, b = g.neighbor_pairs()
        assert np.all(a < b)


def test_max_quantization_error():
    """A cell corner is half a cell diagonal from the centre it snaps to."""
    g = Grid.square(10.0, 2.0)
    corner = np.array([[0.0, 0.0]])
    center = g.cell_centers[g.cell_of(corner)]
    assert np.hypot(*(corner - center)[0]) == pytest.approx(np.sqrt(2.0))
