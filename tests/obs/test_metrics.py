"""Tests for repro.obs.metrics — registry semantics, snapshots, merge."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    set_enabled,
)


@pytest.fixture(autouse=True)
def _default_gate():
    set_enabled(None)
    yield
    set_enabled(None)


class TestGating:
    def test_disabled_by_default(self):
        assert not enabled()

    def test_set_enabled_switches_and_none_restores_default(self):
        set_enabled(True)
        assert enabled()
        set_enabled(False)
        assert not enabled()
        set_enabled(True)
        set_enabled(None)
        assert not enabled()


class TestCounterGauge:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.as_dict() == {"type": "counter", "value": 5}

    def test_gauge(self):
        g = Gauge()
        assert g.as_dict()["value"] is None
        g.set(3.5)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_integral_values_counted_exactly(self):
        h = Histogram()
        for v in (3, 1, 3, 3, 2):
            h.observe(v)
        assert h.count == 5
        assert h.values == {3: 3, 1: 1, 2: 1}
        assert h.min == 1 and h.max == 3
        assert h.mean == pytest.approx(12 / 5)
        assert h.overflow == 0

    def test_non_integral_goes_to_overflow(self):
        h = Histogram()
        h.observe(0.25)
        assert h.count == 1 and h.values == {} and h.overflow == 1
        assert h.as_dict()["mean"] == 0.25

    def test_distinct_value_cap(self):
        from repro.obs.metrics import _HISTOGRAM_MAX_DISTINCT

        h = Histogram()
        for v in range(_HISTOGRAM_MAX_DISTINCT + 10):
            h.observe(v)
        assert len(h.values) == _HISTOGRAM_MAX_DISTINCT
        assert h.overflow == 10
        assert h.count == _HISTOGRAM_MAX_DISTINCT + 10

    def test_empty_histogram_snapshot(self):
        d = Histogram().as_dict()
        assert d["count"] == 0 and d["min"] is None and d["mean"] is None


class TestRegistry:
    def test_get_or_create_and_type_guard(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        assert reg.counter("a") is c
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_sorted_and_jsonable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.histogram("a").observe(2)
        snap = reg.snapshot()
        assert list(snap) == ["a", "z"]
        json.dumps(snap)  # must not raise

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0

    def test_merge_counters_histograms_gauges(self):
        child = MetricsRegistry()
        child.counter("c").inc(3)
        child.gauge("g").set(7)
        child.histogram("h").observe(2)
        child.histogram("h").observe(2)
        child.histogram("h").observe(0.5)

        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.histogram("h").observe(4)
        parent.merge(child.snapshot())

        assert parent.counter("c").value == 4
        assert parent.gauge("g").value == 7
        h = parent.histogram("h")
        assert h.count == 4
        assert h.values == {4: 1, 2: 2}
        assert h.overflow == 1
        assert h.min == 0.5 and h.max == 4

    def test_merge_is_associative_enough_for_workers(self):
        """Merging N worker snapshots in any order yields the same totals."""
        snaps = []
        for k in range(3):
            reg = MetricsRegistry()
            reg.counter("rounds").inc(k + 1)
            reg.histogram("steps").observe(k)
            snaps.append(reg.snapshot())
        a = MetricsRegistry()
        for s in snaps:
            a.merge(s)
        b = MetricsRegistry()
        for s in reversed(snaps):
            b.merge(s)
        assert a.snapshot() == b.snapshot()

    def test_merge_unknown_type_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.merge({"x": {"type": "exotic"}})
