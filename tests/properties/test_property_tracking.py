"""Property/fuzz tests for the tracking pipeline: arbitrary RSS garbage in,
finite in-field estimates out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.tracker import FTTTracker
from repro.core.trajectory import exponential_smoothing, median_filter, moving_average


@st.composite
def messy_rss(draw):
    """RSS matrices with NaN holes and extreme values, 4 sensors wide."""
    k = draw(st.integers(1, 6))
    base = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(k, 4),
            elements=st.one_of(
                st.floats(-150.0, 0.0, allow_nan=False),
                st.just(np.nan),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
        )
    )
    return base


class TestTrackerFuzz:
    @given(messy_rss())
    @settings(max_examples=60, deadline=None)
    def test_localize_any_garbage(self, face_map_module, rss):
        tracker = FTTTracker(face_map_module, matcher="exhaustive")
        est = tracker.localize(rss)
        assert np.all(np.isfinite(est.position))
        assert 0.0 <= est.position[0] <= 100.0
        assert 0.0 <= est.position[1] <= 100.0
        assert est.sq_distance >= 0.0

    @given(messy_rss())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_matches_any_garbage(self, face_map_module, rss):
        tracker = FTTTracker(face_map_module, matcher="heuristic")
        tracker.localize(np.zeros((1, 4)))  # seed
        est = tracker.localize(rss)
        assert np.all(np.isfinite(est.position))


@pytest.fixture(scope="module")
def face_map_module(request):
    import numpy as np

    from repro.geometry.faces import build_face_map
    from repro.geometry.grid import Grid

    nodes = np.array([[30.0, 30.0], [70.0, 30.0], [30.0, 70.0], [70.0, 70.0]])
    return build_face_map(nodes, Grid.square(100.0, 4.0), 1.5)


class TestFilterProperties:
    positions = hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 20), st.just(2)),
        elements=st.floats(-100.0, 100.0, allow_nan=False),
    )

    @given(positions, st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_filters_preserve_shape(self, pos, window):
        for fn in (moving_average, median_filter):
            out = fn(pos, window)
            assert out.shape == pos.shape
            assert np.all(np.isfinite(out))

    @given(positions, st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_filter_output_within_input_hull(self, pos, window):
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        for fn in (moving_average, median_filter):
            out = fn(pos, window)
            assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)

    @given(positions, st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_exponential_within_hull(self, pos, alpha):
        out = exponential_smoothing(pos, alpha)
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)
