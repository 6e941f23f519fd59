"""Tests for repro.viz — ASCII rendering."""

import numpy as np
import pytest

from repro.viz import render_face_map, render_scalar_field, sparkline


class TestScalarField:
    def test_dimensions(self):
        field = np.arange(100, dtype=float).reshape(10, 10)
        text = render_scalar_field(field, width=40, height=10)
        lines = text.split("\n")
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_gradient_shading(self):
        field = np.linspace(0, 1, 100).reshape(10, 10)
        text = render_scalar_field(field, width=20, height=5)
        assert len(set(text.replace("\n", ""))) > 2  # multiple shades used

    def test_constant_field_single_shade(self):
        text = render_scalar_field(np.ones((5, 5)), width=10, height=5)
        assert set(text.replace("\n", "")) == {" "}

    def test_overlay_points(self):
        text = render_scalar_field(
            np.zeros((10, 10)),
            width=20,
            height=10,
            overlay_points=np.array([[5.0, 5.0]]),
            extent=(10.0, 10.0),
        )
        assert "#" in text

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            render_scalar_field(np.zeros(10))


class TestRenderFaceMap:
    def test_renders(self, face_map):
        text = render_face_map(face_map, width=40)
        assert "#" in text  # sensors visible
        lines = text.split("\n")
        assert all(len(line) == 40 for line in lines)


class TestSparkline:
    def test_length(self):
        assert len(sparkline(np.arange(10))) == 10

    def test_downsampling(self):
        assert len(sparkline(np.arange(100), width=20)) == 20

    def test_monotone_series_monotone_blocks(self):
        s = sparkline(np.arange(8))
        assert s == "".join(sorted(s))

    def test_empty(self):
        assert sparkline(np.array([])) == ""

    def test_constant(self):
        s = sparkline(np.ones(5))
        assert len(set(s)) == 1
