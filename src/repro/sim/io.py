"""Result serialization: sweep records to CSV.

The CLI's ``--out``, the fault-lab campaign and the benchmark harness
write regenerated series as CSV so results can be diffed across runs and
plotted externally.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.sim.experiments import SweepRecord

__all__ = ["records_to_csv"]


def records_to_csv(records: Sequence[SweepRecord], path: "str | Path") -> Path:
    """Write sweep records as CSV, one column per field in first-seen
    order; returns the path written."""
    if not records:
        raise ValueError("no records to serialize")
    dicts = [r.as_dict() for r in records]
    keys = list(dict.fromkeys(k for d in dicts for k in d))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(dicts)
    return path
