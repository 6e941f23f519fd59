"""``repro.obs`` — zero-dependency observability for the tracking stack.

Two cooperating pieces:

* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges, and exact-value histograms, with a no-op fast path when
  disabled (the default).  Instrumented hot paths — the face-map cache,
  the matching kernels, Algorithm 2's hill climb, the tracking loop,
  the fault layer — all record here.
* :mod:`repro.obs.tracing` — a structured JSONL event tracer with
  spans, emitting one event per localization round (matched face,
  masked-pair count, matcher work) plus sweep-level spans.

Observability is off by default.  Turn it on process-wide with
:func:`set_enabled` (and :func:`set_tracer` for events), or for one block
of work::

    with repro.obs.observe(trace_path="out/trace.jsonl") as reg:
        run_tracking(...)
    print(repro.obs.format_metrics(reg.snapshot()))

Sweeps take the higher-level route: ``parallel_sweep(..., obs_dir=d)``
runs under :func:`observe` — pool workers record metrics too, and their
registries are merged back — and writes ``metrics.json`` +
``trace.jsonl`` into ``d``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.io import format_metrics, write_metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    registry,
    reset,
    set_enabled,
    snapshot,
)
from repro.obs.tracing import Tracer, set_tracer, span, trace_event, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "counter",
    "enabled",
    "format_metrics",
    "gauge",
    "histogram",
    "observe",
    "registry",
    "reset",
    "set_enabled",
    "set_tracer",
    "snapshot",
    "span",
    "trace_event",
    "tracer",
    "write_metrics",
]


@contextmanager
def observe(*, trace_path: "str | None" = None):
    """Temporarily enable observability; yields the metrics registry.

    The registry is reset on entry so the yielded metrics describe exactly
    the enclosed work.  The prior enabled flag and tracer are restored on
    exit; with *trace_path*, events of the block go to that file and the
    prior tracer stays open meanwhile.
    """
    from repro.obs import tracing as _tracing

    prev_enabled = enabled()
    prev_tracer = _tracing._tracer
    reset()
    set_enabled(True)
    if trace_path:
        _tracing._tracer = Tracer(trace_path)
    try:
        yield registry()
    finally:
        set_enabled(prev_enabled)
        if trace_path:
            if _tracing._tracer is not None:
                _tracing._tracer.close()
            _tracing._tracer = prev_tracer
