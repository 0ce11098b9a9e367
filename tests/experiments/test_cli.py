"""CLI tests (``python -m repro``)."""

import csv

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        args_dict = vars(args)
        assert args_dict["nodes"] == 20_000
        assert args_dict["csv"] is None

    def test_sweep_args(self):
        args = build_parser().parse_args(["fig9", "--scales", "100", "200"])
        assert args.scales == [100, 200]


class TestCommands:
    FAST = ["-n", "1500", "--duration", "120", "--warmup", "50"]

    def test_fig5_runs_and_prints(self, capsys):
        assert main(["fig5"] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "figure 5" in out
        assert "level" in out

    def test_fig7_csv_export(self, tmp_path, capsys):
        path = tmp_path / "fig7.csv"
        assert main(["fig7", "--csv", str(path)] + self.FAST) == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "error_rate"]
        assert len(rows) >= 2
        assert float(rows[1][1]) >= 0.0

    def test_common_summary_line(self, capsys):
        assert main(["common"] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "mean error rate" in out
        assert "root out-degree" in out

    def test_fig9_sweep(self, capsys):
        assert main(
            ["fig9", "--scales", "500", "1500", "--duration", "100", "--warmup", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "figures 9/10" in out

    def test_fig11_sweep(self, capsys):
        assert main(
            ["fig11", "--rates", "0.5", "2.0", "-n", "1000",
             "--duration", "100", "--warmup", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "figures 11/12" in out

    def test_predict_no_simulation(self, capsys):
        assert main(["predict", "-n", "100000"]) == 0
        out = capsys.readouterr().out
        assert "closed-form level distribution" in out
        assert "predicted levels: 7" in out

    #: ``repro baselines -n 100000`` as printed by commit ``be26ec5``, one
    #: column per design (pointers at 500 / 5,000 / 50,000 bps).
    BASELINES_N100K = {
        "budget_bps": ["500", "5,000", "50,000"],
        "peerwindow": ["600.00", "6,000", "60,000"],
        "gossip": ["150.00", "1,500", "15,000"],
        "push-pull-gossip": ["285.00", "2,985", "29,985"],
        "onehop": ["0", "0", "0"],
        "random-walk": ["120.00", "1,200", "12,000"],
        "explicit-probe": ["30.00", "300.00", "3,000"],
    }

    def test_baselines_table(self, capsys):
        from repro.baselines import DESIGNS

        assert main(["baselines", "-n", "100000"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if " | " in line]
        header, *rows = [[cell.strip() for cell in line.split("|")] for line in lines]
        assert header == ["budget_bps", "peerwindow", *DESIGNS]
        columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        assert columns == self.BASELINES_N100K

    def test_fig5_chart_flag(self, capsys):
        assert main(["fig5", "--chart"] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "node distribution by level" in out
        assert "█" in out

    def test_fig11_log_chart_flag(self, capsys):
        assert main(
            ["fig11", "--chart", "--rates", "0.5", "2.0", "-n", "1000",
             "--duration", "100", "--warmup", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "log y" in out
        assert "*" in out
