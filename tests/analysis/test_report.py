"""Tests for repro.analysis.report."""


import pytest

from repro.analysis.report import collect_results, render_report, write_report


@pytest.fixture
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "fig11bc.csv").write_text("tracker,mean_error\nfttt,4.5\npm,6.1\n")
    (d / "custom_thing.csv").write_text("a,b\n1,2\n")
    return d


class TestCollect:
    def test_loads_all_csvs(self, results_dir):
        results = collect_results(results_dir)
        assert {r.result_id for r in results} == {"fig11bc", "custom_thing"}

    def test_known_results_titled(self, results_dir):
        results = {r.result_id: r for r in collect_results(results_dir)}
        assert "Fig. 11" in results["fig11bc"].title
        assert results["fig11bc"].claim != ""

    def test_unknown_results_keep_their_id(self, results_dir):
        results = {r.result_id: r for r in collect_results(results_dir)}
        assert results["custom_thing"].title == "custom_thing"
        assert results["custom_thing"].claim == ""

    def test_rows_parsed(self, results_dir):
        results = {r.result_id: r for r in collect_results(results_dir)}
        assert results["fig11bc"].header == ["tracker", "mean_error"]
        assert results["fig11bc"].rows == [["fttt", "4.5"], ["pm", "6.1"]]

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="results"):
            collect_results(tmp_path / "nope")

    def test_empty_files_skipped(self, results_dir):
        (results_dir / "empty.csv").write_text("")
        ids = {r.result_id for r in collect_results(results_dir)}
        assert "empty" not in ids


class TestRender:
    def test_contains_sections_and_tables(self, results_dir):
        text = render_report(collect_results(results_dir))
        assert "# Reproduction report" in text
        assert "## Fig. 11(b,c)" in text
        assert "| fttt | 4.5 |" in text

    def test_long_tables_truncated(self, tmp_path):
        d = tmp_path / "r"
        d.mkdir()
        rows = "\n".join(f"{i},{i}" for i in range(30))
        (d / "big.csv").write_text("a,b\n" + rows + "\n")
        text = render_report(collect_results(d))
        assert "more rows" in text


class TestWrite:
    def test_writes_file(self, results_dir, tmp_path):
        out = write_report(results_dir, tmp_path / "sub" / "REPORT.md")
        assert out.exists()
        assert out.read_text().startswith("# Reproduction report")

    def test_no_results_raises(self, tmp_path):
        empty = tmp_path / "r"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            write_report(empty, tmp_path / "out.md")
