"""Tests for the repro-experiment CLI."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--n-ssets", "8", "--generations", "100", "--seed", "3"]
        )
        assert args.experiment == "fig2"
        assert args.n_ssets == 8

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table6" in out

    @pytest.mark.parametrize(
        "eid,needle",
        [
            ("table1", "Prisoner's Dilemma"),
            ("table2", "Table II"),
            ("table3", "Table III"),
            ("table4", "2^4096"),
            ("table5", "Table V"),
            ("table8", "Table VIII"),
            ("table6", "Table VI"),
            ("fig3", "Fig. 3"),
            ("fig4", "Fig. 4"),
            ("table7", "Table VII"),
            ("fig5", "Fig. 5"),
            ("fig6", "Fig. 6"),
            ("fig7", "Fig. 7"),
            ("nonpow2", "paper: ~15%"),
        ],
    )
    def test_run_model_experiments(self, capsys, eid, needle):
        assert main(["run", eid]) == 0
        assert needle in capsys.readouterr().out

    def test_run_fig2_scaled_down(self, capsys):
        assert main(["run", "fig2", "--n-ssets", "8", "--generations", "300",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2(a)" in out

    def test_run_heterogeneous(self, capsys):
        assert main(["run", "heterogeneous"]) == 0
        assert "hybrid" in capsys.readouterr().out

    def test_run_ablation_mapping(self, capsys):
        assert main(["run", "ablation-mapping"]) == 0
        assert "snake" in capsys.readouterr().out

    def test_all_skips_slow_by_default(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import cli

        fast_only = {"table1", "table4"}
        monkeypatch.setattr(
            cli, "EXPERIMENTS",
            {k: v for k, v in cli.EXPERIMENTS.items()
             if k in fast_only | {"fig2"}},
        )
        assert main(["all", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[skip] fig2" in out
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table4.txt").exists()
        assert not (tmp_path / "fig2.txt").exists()


class TestScaleFlagRejection:
    """Regression: ``run`` silently ignored --n-ssets/--generations/--seed
    for every experiment but fig2 — a user asking table6 for ``--seed 3``
    got the default run with no hint their flag did nothing."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-ssets", "8"],
            ["--generations", "100"],
            ["--seed", "3"],
            ["--seed", "3", "--generations", "100"],
        ],
    )
    def test_non_config_experiment_rejects_scale_flags(self, flags):
        with pytest.raises(SystemExit, match="does not consume"):
            main(["run", "table1"] + flags)

    def test_rejection_names_the_offending_flags(self):
        with pytest.raises(SystemExit, match="--generations, --seed"):
            main(["run", "table6", "--seed", "3", "--generations", "100"])

    def test_fig2_still_consumes_the_flags(self, capsys):
        assert main(["run", "fig2", "--n-ssets", "8", "--generations", "120",
                     "--seed", "2"]) == 0
        assert "Fig. 2(a)" in capsys.readouterr().out

    def test_flagless_non_config_experiment_still_runs(self, capsys):
        assert main(["run", "table1"]) == 0
        assert capsys.readouterr().out


class TestAllContinuesOnFailure:
    """Regression: one failing experiment aborted ``all`` — everything after
    it in registry order was never attempted, and the partial output
    directory looked complete."""

    def _broken_registry(self, monkeypatch, failing: str):
        from repro.experiments import cli

        keep = {"table1", failing, "table4"}
        monkeypatch.setattr(
            cli, "EXPERIMENTS",
            {k: v for k, v in cli.EXPERIMENTS.items() if k in keep},
        )
        original = cli.DISPATCH[failing]
        monkeypatch.setitem(
            cli.DISPATCH, failing,
            lambda args: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        return original

    def test_failure_does_not_abort_later_experiments(
        self, capsys, tmp_path, monkeypatch
    ):
        self._broken_registry(monkeypatch, failing="table2")
        rc = main(["all", "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1  # nonzero: something failed
        assert "table2" in captured.err and "boom" in captured.err
        # table4 comes after table2 in registry order and still ran.
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table4.txt").exists()
        assert not (tmp_path / "table2.txt").exists()

    def test_failure_summary_lists_failed_ids(self, capsys, tmp_path, monkeypatch):
        self._broken_registry(monkeypatch, failing="table2")
        assert main(["all", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "1 experiment(s) failed: table2" in err

    def test_all_green_still_exits_zero(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import cli

        monkeypatch.setattr(
            cli, "EXPERIMENTS",
            {k: v for k, v in cli.EXPERIMENTS.items() if k in {"table1", "table4"}},
        )
        assert main(["all", "--output-dir", str(tmp_path)]) == 0
