"""Serialization and display of observability data.

``write_metrics`` lands a registry snapshot as ``metrics.json`` next to
sweep results; ``format_metrics`` renders the same snapshot as the
aligned text table the CLI prints for ``--stats`` / ``fttt stats``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, registry

__all__ = ["write_metrics", "format_metrics"]


def write_metrics(path, reg: "MetricsRegistry | None" = None, *, extra: "dict | None" = None) -> Path:
    """Write a registry snapshot (plus optional run metadata) as JSON."""
    reg = reg if reg is not None else registry()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"metrics": reg.snapshot()}
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _fmt_num(v) -> str:
    if v is None:
        return "-"
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.6g}"


def format_metrics(snap: "dict[str, dict] | None" = None) -> str:
    """Aligned text rendering of a metrics snapshot."""
    title = "observability metrics"
    if snap is None:
        snap = registry().snapshot()
    if not snap:
        return f"{title}: (no metrics recorded — is repro.obs enabled?)"
    width = max(len(name) for name in snap)
    lines = [title, "-" * len(title)]
    for name, data in snap.items():
        kind = data["type"]
        if kind in ("counter", "gauge"):
            lines.append(f"{name.ljust(width)}  {_fmt_num(data['value'])}")
        else:  # histogram
            desc = (
                f"count={data['count']}  mean={_fmt_num(data['mean'])}  "
                f"min={_fmt_num(data['min'])}  max={_fmt_num(data['max'])}"
            )
            lines.append(f"{name.ljust(width)}  {desc}")
            values = data.get("values") or {}
            if values and len(values) <= 12:
                dist = "  ".join(f"{k}:{v}" for k, v in values.items())
                lines.append(f"{'':{width}}    [{dist}]")
    return "\n".join(lines)
