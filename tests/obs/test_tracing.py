"""Tests for repro.obs.tracing — JSONL tracer, spans, the process tracer."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.tracing import Tracer, set_tracer, span, trace_event, tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


def test_memory_tracer_collects_events():
    t = Tracer()
    t.event("round", face=3, sq_distance=1.5)
    assert t.events == [{"ev": "round", "face": 3, "sq_distance": 1.5}]


def test_file_tracer_writes_jsonl(tmp_path):
    path = tmp_path / "sub" / "trace.jsonl"
    t = Tracer(path)
    t.event("a", x=1)
    t.event("b", y=[1, 2])
    t.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [{"ev": "a", "x": 1}, {"ev": "b", "y": [1, 2]}]


def test_numpy_fields_serialize(tmp_path):
    path = tmp_path / "trace.jsonl"
    t = Tracer(path)
    t.event("np", face=np.int64(7), pos=np.array([1.0, 2.0]))
    t.close()
    rec = json.loads(path.read_text())
    assert rec == {"ev": "np", "face": 7, "pos": [1.0, 2.0]}


def test_trace_event_noop_without_tracer():
    trace_event("ignored", x=1)  # must not raise
    assert tracer() is None


def test_trace_event_routes_to_active_tracer():
    t = Tracer()
    set_tracer(t)
    trace_event("hello", n=2)
    assert t.events == [{"ev": "hello", "n": 2}]


def test_span_emits_duration():
    t = Tracer()
    set_tracer(t)
    with span("work", tag="x"):
        pass
    (ev,) = t.events
    assert ev["ev"] == "work" and ev["tag"] == "x"
    assert ev["dur_s"] >= 0.0


def test_span_noop_without_tracer():
    with span("work"):
        pass  # must not raise


def test_set_tracer_closes_previous(tmp_path):
    first = Tracer(tmp_path / "first.jsonl")
    set_tracer(first)
    second = Tracer()
    set_tracer(second)
    assert first._fh is None  # closed
    assert tracer() is second


def test_observe_restores_gate_and_tracer(tmp_path):
    """``observe(trace_path=...)`` routes the block's events to its own file
    and leaves the prior tracer open and installed, and the gate as found."""
    import repro.obs as obs

    prior = Tracer(tmp_path / "prior.jsonl")
    set_tracer(prior)
    for before in (False, True):
        obs.set_enabled(before)
        try:
            with obs.observe(trace_path=tmp_path / f"block_{before}.jsonl"):
                assert obs.enabled()
                trace_event("inside", on=before)
            assert obs.enabled() is before
        finally:
            obs.set_enabled(None)
        assert tracer() is prior and prior._fh is not None
        block = (tmp_path / f"block_{before}.jsonl").read_text()
        assert json.loads(block) == {"ev": "inside", "on": before}
    trace_event("after")
    set_tracer(None)
    assert json.loads((tmp_path / "prior.jsonl").read_text()) == {"ev": "after"}
