"""Tests for repro.sim.io."""

import csv

import pytest

from repro.sim.experiments import SweepRecord
from repro.sim.io import records_to_csv


@pytest.fixture
def records():
    return [
        SweepRecord("fttt", {"n_sensors": 10}, 5.5, 2.2, 2.0, 3, (5.0, 5.5, 6.0)),
        SweepRecord("pm", {"n_sensors": 10}, 8.1, 3.3, 3.1, 3, (8.0, 8.1, 8.2)),
    ]


class TestCsv:
    def test_roundtrip_fields(self, records, tmp_path):
        path = records_to_csv(records, tmp_path / "out.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["tracker"] == "fttt"
        assert float(rows[0]["mean_error"]) == 5.5
        assert rows[1]["n_sensors"] == "10"

    def test_creates_parent_dirs(self, records, tmp_path):
        path = records_to_csv(records, tmp_path / "a" / "b" / "out.csv")
        assert path.exists()

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            records_to_csv([], tmp_path / "out.csv")
