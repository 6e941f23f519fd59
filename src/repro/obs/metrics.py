"""Process-local metrics: counters, gauges, and exact-value histograms.

The registry is the quantitative half of :mod:`repro.obs`.  It is sized
for the paper's own evaluation quantities — cache hit rates, hill-climb
step counts (Algorithm 2), masked-pair counts under faults (Eq. 6-7) —
so metrics are cheap enough to leave compiled into the hot paths:

* every instrumented call site is guarded by :func:`enabled`, which
  reads one module flag; with observability off (the default) the hot
  paths pay only that guard;
* histograms store exact counts per *integral* observed value (step
  counts, masked pairs, tie sizes are all small integers), falling back
  to running ``count/sum/min/max`` statistics for real-valued
  observations such as latencies.

Snapshots are plain JSON-able dicts, and :meth:`MetricsRegistry.merge`
folds a child process's snapshot into a parent registry — which is how
``parallel_sweep`` aggregates per-worker metrics into one ``metrics.json``.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "set_enabled",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset",
]

_HISTOGRAM_MAX_DISTINCT = 256  # distinct exact values kept before overflowing


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-observed value (e.g. face count of the current map)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: "float | None" = None

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Running distribution of observations.

    Integral values (hill-climb steps, masked-pair counts, tie sizes) are
    counted exactly in ``values``; once more than
    ``_HISTOGRAM_MAX_DISTINCT`` distinct values appear, or for
    non-integral observations (timings), only the running statistics
    advance and ``overflow`` counts what the dict missed.
    """

    __slots__ = ("count", "total", "min", "max", "values", "overflow")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.values: dict[int, int] = {}
        self.overflow = 0

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if v.is_integer() and abs(v) < 2**53:
            key = int(v)
            if key in self.values:
                self.values[key] += 1
            elif len(self.values) < _HISTOGRAM_MAX_DISTINCT:
                self.values[key] = 1
            else:
                self.overflow += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "values": {str(k): v for k, v in sorted(self.values.items())},
            "overflow": self.overflow,
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name -> metric map with JSON snapshots and cross-process merge."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.setdefault(name, cls())
        if not isinstance(m, cls):
            raise TypeError(f"metric {name!r} is a {type(m).__name__}, not a {cls.__name__}")
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict[str, dict]:
        """JSON-able view of every metric, sorted by name."""
        return {name: m.as_dict() for name, m in sorted(self._metrics.items())}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def merge(self, snap: "dict[str, dict]") -> None:
        """Fold a :meth:`snapshot` (typically from a worker) into this registry.

        Counters and histograms add; gauges keep the incoming value (last
        writer wins, matching their point-in-time semantics).
        """
        for name, data in snap.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(int(data["value"]))
            elif kind == "gauge":
                if data["value"] is not None:
                    self.gauge(name).set(data["value"])
            elif kind == "histogram":
                h = self.histogram(name)
                if data["count"]:
                    h.count += int(data["count"])
                    h.total += float(data["sum"])
                    h.min = min(h.min, float(data["min"]))
                    h.max = max(h.max, float(data["max"]))
                    for key, n in data.get("values", {}).items():
                        k = int(key)
                        if k in h.values:
                            h.values[k] += int(n)
                        elif len(h.values) < _HISTOGRAM_MAX_DISTINCT:
                            h.values[k] = int(n)
                        else:
                            h.overflow += int(n)
                    h.overflow += int(data.get("overflow", 0))
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")


# -- process-global registry and gating -----------------------------------

_registry = MetricsRegistry()
_enabled = False


def enabled() -> bool:
    """Observability gate: off until :func:`set_enabled` or :func:`repro.obs.observe`.

    This is the no-op fast path — instrumented call sites check it before
    touching the registry, so the disabled cost is one function call.
    """
    return _enabled


def set_enabled(value: "bool | None") -> None:
    """Turn observability on or off; ``None`` restores the default (off)."""
    global _enabled
    _enabled = bool(value)


def registry() -> MetricsRegistry:
    return _registry


def counter(name: str) -> Counter:
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    return _registry.gauge(name)


def histogram(name: str) -> Histogram:
    return _registry.histogram(name)


def snapshot() -> dict[str, dict]:
    return _registry.snapshot()


def reset() -> None:
    _registry.reset()
