"""The committed-results check skips exactly its declared timing cells and
keeps REPORT.md in step with the committed CSVs."""

import csv
import importlib.util
import os
import shutil
from pathlib import Path

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "check_results", os.path.join(_ROOT, "tools", "check_results.py")
)
check_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_results)


@pytest.fixture
def dirs(tmp_path):
    committed, rerun = tmp_path / "committed", tmp_path / "rerun"
    committed.mkdir()
    rerun.mkdir()
    return committed, rerun


def test_timing_cells_are_ignored(dirs):
    committed, rerun = dirs
    (committed / "throughput.csv").write_text("tracker,rounds_per_s\nfttt,2572.9")
    (rerun / "throughput.csv").write_text("tracker,rounds_per_s\nfttt,3476.1")
    (committed / "alg2_matching.csv").write_text("metric,a,b\nwall_clock_ms,4.41,10.54\nvisits,1,2")
    (rerun / "alg2_matching.csv").write_text("metric,a,b\nwall_clock_ms,5.24,10.46\nvisits,1,2")
    assert check_results.compare(committed, rerun) == []


def test_model_cells_must_match(dirs):
    committed, rerun = dirs
    (committed / "alg2_matching.csv").write_text("metric,a,b\nwall_clock_ms,4.41,10.54\nvisits,1,2")
    (rerun / "alg2_matching.csv").write_text("metric,a,b\nwall_clock_ms,4.41,10.54\nvisits,1,3")
    (committed / "ties.csv").write_text("n,rate\n8,0.1167")
    (rerun / "ties.csv").write_text("n,rate\n8,0.1056")
    problems = check_results.compare(committed, rerun)
    assert problems == [
        "alg2_matching.csv line 3: committed ['visits', '1', '2'] != rerun ['visits', '1', '3']",
        "ties.csv line 2: committed ['8', '0.1167'] != rerun ['8', '0.1056']",
    ]


def test_missing_and_extra_files_reported(dirs):
    committed, rerun = dirs
    (committed / "gone.csv").write_text("a\n1")
    (rerun / "new.csv").write_text("a\n1")
    assert check_results.compare(committed, rerun) == [
        "gone.csv: committed but not regenerated",
        "new.csv: regenerated but not committed",
    ]


def test_declared_timing_cells_exist_in_the_committed_csvs():
    results = os.path.join(_ROOT, "benchmarks", "results")
    for name, cells in check_results.TIMING_CELLS.items():
        with open(os.path.join(results, name), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert cells.get("columns", set()) <= set(rows[0]), name
        assert cells.get("rows", set()) <= {row[0] for row in rows[1:]}, name


@pytest.fixture
def results_copy(tmp_path):
    """A copy of the committed CSVs and report, plus a scratch directory."""
    results = tmp_path / "results"
    shutil.copytree(Path(_ROOT) / "benchmarks" / "results", results)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    return results, scratch


def test_committed_report_matches_the_committed_csvs(results_copy):
    assert check_results.report_problems(*results_copy) == []


def test_stale_report_fails(results_copy):
    results, scratch = results_copy
    # a CSV fix without a regenerated report: the report still quotes the old value
    rows = list(csv.reader((results / "ambiguity_ties.csv").read_text().splitlines()))
    rows[1][-1] = "0.9999"
    (results / "ambiguity_ties.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    problems = check_results.report_problems(results, scratch)
    assert len(problems) == 1
    assert problems[0].startswith("REPORT.md line ")
    assert "0.9999" in problems[0]


def test_report_whitespace_and_absence_reported(results_copy):
    results, scratch = results_copy
    report = results / "REPORT.md"
    report.write_text(report.read_text().rstrip("\n"))
    assert check_results.report_problems(results, scratch) == [
        "REPORT.md: differs from write_report in whitespace or line endings"
    ]
    report.unlink()
    assert check_results.report_problems(results, scratch) == ["REPORT.md: not committed"]
