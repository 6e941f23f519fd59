"""Structured JSONL event tracing with spans.

The qualitative half of :mod:`repro.obs`: when a sweep misbehaves, the
metrics registry says *how much* (hit rates, step histograms) and the
trace says *when and where* — one JSON object per line, one line per
event, so traces stream to disk and grep/jq cleanly.

Events carry an ``ev`` name plus arbitrary JSON-able fields; spans add a
``dur_s`` wall-clock duration on exit.  The per-round tracking events are
emitted by :meth:`repro.core.tracker.FTTTracker.track`, giving the
paper-level quantities per localization round: matched face, squared
vector distance, masked-pair count (Eq. 7 ``*`` components), reporting
sensors, and matcher work.

A process has at most one active tracer (installed by :func:`set_tracer`
or :func:`repro.obs.observe`); when none is installed every
:func:`trace_event` / :func:`span` call is a no-op costing one attribute
check.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import IO, Any

__all__ = ["Tracer", "tracer", "set_tracer", "trace_event", "span"]


class Tracer:
    """Append-only JSONL event writer.

    Parameters
    ----------
    path : file to append events to; parent directories are created.
        ``None`` keeps events in memory (``.events``) — handy in tests.
    """

    def __init__(self, path: "str | os.PathLike | None" = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.events: list[dict[str, Any]] = []
        self._fh: "IO[str] | None" = None
        if self.path is not None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", buffering=1)

    def event(self, name: str, **fields: Any) -> None:
        record = {"ev": name, **fields}
        if self._fh is not None:
            self._fh.write(json.dumps(record, separators=(",", ":"), default=_jsonable) + "\n")
        else:
            self.events.append(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _jsonable(obj: Any):
    """Fallback encoder: numpy scalars/arrays degrade to Python numbers/lists."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


_tracer: "Tracer | None" = None


def tracer() -> "Tracer | None":
    """The active tracer, if any."""
    return _tracer


def set_tracer(t: "Tracer | None") -> None:
    """Install (or clear) the process tracer, closing any previous one."""
    global _tracer
    if _tracer is not None and _tracer is not t:
        _tracer.close()
    _tracer = t


def trace_event(name: str, **fields: Any) -> None:
    t = tracer()
    if t is not None:
        t.event(name, **fields)


@contextmanager
def span(name: str, **fields: Any):
    """Context manager emitting ``name`` with a ``dur_s`` field on exit."""
    t = tracer()
    if t is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t.event(name, dur_s=time.perf_counter() - t0, **fields)
