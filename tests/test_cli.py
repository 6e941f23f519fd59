"""Tests for repro.cli — every subcommand drives end to end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        names = set(sub.choices)
        assert {
            "list",
            "fig3",
            "fig10",
            "fig11",
            "fig12a",
            "fig12b",
            "fig12cd",
            "fig13",
            "sampling-times",
            "ablations",
            "density",
            "report",
            "run",
            "faultlab",
            "fuzz",
            "replay-divergence",
        } <= names


# options each of these commands used to accept and ignore
_UNREAD_OPTIONS = [
    ("fig3", "--reps", "1"),
    ("fig3", "--seed", "1"),
    ("fig3", "--out", "csv"),
    ("fig13", "--reps", "1"),
    ("fig13", "--quick"),
    ("fig13", "--out", "csv"),
    ("fig10", "--reps", "1"),
    ("fig10", "--out", "csv"),
    ("fig12a", "--out", "csv"),
    ("ablations", "--out", "csv"),
    ("density", "--reps", "1"),
    ("density", "--quick"),
    ("density", "--out", "csv"),
]


@pytest.mark.parametrize("argv", _UNREAD_OPTIONS, ids=lambda a: f"{a[0]}{a[1]}")
def test_command_rejects_options_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-1", "two"])
@pytest.mark.parametrize("command", ["fig11", "fig12a", "fig12b", "fig12cd", "ablations", "faultlab"])
def test_reps_below_one_is_a_usage_error(command, reps, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--reps", reps])
    assert exc.value.code == 2
    assert "argument --reps" in capsys.readouterr().err


# the positional a bad two-word command line names
_POSITIONALS = {"run": "preset", "stats": "preset", "replay-divergence": "artifact"}


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "dense-grid", "--trackers", "fttt,bogus"),
        ("stats", "dense-grid", "--trackers", "fttt,bogus"),
        ("faultlab", "--trackers", "fttt,bogus"),
        ("faultlab", "--families", "dropout,gremlins"),
        ("faultlab", "--intensities", "abc"),
        ("faultlab", "--intensities", "0.1,1.5"),
        ("run", "dense-grid", "--rounds", "0"),
        ("stats", "dense-grid", "--rounds", "0"),
        ("stats", "dense-grid", "--dropout", "1.5"),
        ("stats", "dense-grid", "--dropout", "-0.1"),
        ("sampling-times", "--sensors", "1"),
        ("sampling-times", "--confidence", "1.5"),
        ("sampling-times", "--confidence", "1"),
        ("faultlab", "--workers", "0"),
        ("fuzz", "--workers", "0"),
        ("fuzz", "--scenarios", "0"),
        ("run", "bogus"),
        ("stats", "bogus"),
        ("replay-divergence", "/nonexistent.json"),
    ],
    ids=lambda a: "_".join(a),
)
def test_bad_input_is_a_usage_error(argv, capsys):
    """Checked at parse time: exit 2 with the offending option (or
    positional) named, before any world is built or any worker started."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    name = argv[-2] if len(argv) > 2 else _POSITIONALS[argv[0]]
    assert f"argument {name}" in capsys.readouterr().err


class TestListAndInfo:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "sampling-times" in out

    def test_sampling_times_worked_example(self, capsys):
        assert main(["sampling-times", "--sensors", "20", "--confidence", "0.99"]) == 0
        out = capsys.readouterr().out
        assert "k = 16" in out

    def test_fig3_quick(self, capsys):
        assert main(["fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all-certain" in out

    def test_density(self, capsys):
        assert main(["density"]) == 0
        out = capsys.readouterr().out
        assert "lifetime" in out


class TestRun:
    def test_run_list_presets(self, capsys):
        assert main(["run", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-baseline" in out

    def test_run_preset(self, capsys):
        assert main(["run", "sparse", "--trackers", "fttt,nearest", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "fttt" in out and "nearest" in out

    def test_run_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "atlantis", "--rounds", "2"])
        assert exc.value.code == 2
        assert "unknown preset 'atlantis'" in capsys.readouterr().err


class TestFigureCommands:
    def test_fig13(self, capsys):
        assert main(["fig13", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "basic" in out and "extended" in out

    def test_fig10_quick(self, capsys):
        assert main(["fig10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "deployment = grid" in out and "deployment = random" in out

    def test_fig12cd_quick(self, capsys):
        assert main(["fig12cd", "--quick", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "fttt-extended" in out

    def test_fig11_quick_with_csv(self, tmp_path, capsys):
        assert main(["fig11", "--quick", "--reps", "1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig11.csv").exists()
        out = capsys.readouterr().out
        assert "direct-mle" in out


class TestFaultlab:
    def test_faultlab_quick_end_to_end(self, tmp_path, capsys):
        assert (
            main(
                [
                    "faultlab",
                    "--quick",
                    "--reps",
                    "1",
                    "--families",
                    "byzantine",
                    "--intensities",
                    "0.0,0.3",
                    "--trackers",
                    "fttt,fttt-robust",
                    "--workers",
                    "1",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "robustness: byzantine" in out
        assert "fttt-robust@0.30" in out
        assert (tmp_path / "robustness.csv").exists()
        assert (tmp_path / "metrics.json").exists()


class TestFuzz:
    def test_fuzz_clean_campaign(self, tmp_path, capsys):
        assert (
            main(
                [
                    "fuzz",
                    "--scenarios",
                    "8",
                    "--seed",
                    "5",
                    "--workers",
                    "1",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no divergences" in out
        assert "digest:" in out
        assert not list(tmp_path.iterdir())

    def test_fuzz_reports_divergence_and_replay_round_trips(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.geometry.faces import FaceMap

        original = FaceMap.tie_tolerance
        monkeypatch.setattr(
            FaceMap, "tie_tolerance", lambda self, best: original(self, best) + 0.75
        )
        assert (
            main(
                [
                    "fuzz",
                    "--scenarios",
                    "30",
                    "--seed",
                    "3",
                    "--workers",
                    "1",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "replay with:" in out
        artifacts = list(tmp_path.iterdir())
        assert len(artifacts) == 1
        # replaying while the bug is still in place reproduces it (exit 1)
        assert main(["replay-divergence", str(artifacts[0])]) == 1
        assert "reproduced" in capsys.readouterr().out
        monkeypatch.setattr(FaceMap, "tie_tolerance", original)
        # after the fix, the same artifact reports clean (exit 0)
        assert main(["replay-divergence", str(artifacts[0])]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fuzz_respects_scenario_budget(self, capsys):
        assert main(["fuzz", "--scenarios", "4", "--seed", "1", "--workers", "1"]) == 0
        assert "4 scenarios" in capsys.readouterr().out


class TestReport:
    def test_report_from_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig11bc.csv").write_text("tracker,mean\nfttt,4.0\n")
        out_file = tmp_path / "REPORT.md"
        assert main(["report", "--results", str(results), "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "Reproduction report" in out_file.read_text()
