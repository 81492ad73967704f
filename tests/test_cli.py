"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dataset.io import read_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.csv"])
        assert args.certificates == 25000
        assert not args.clean

    def test_run_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "d.html", "--stakeholder", "alien"])


class TestCommands:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "epc.csv"
        code = main(["generate", str(out), "--certificates", "300", "--seed", "1"])
        assert code == 0
        table = read_csv(out)
        assert table.n_rows == 300
        assert table.n_columns == 132
        assert "300 dirty certificates" in capsys.readouterr().out

    def test_generate_clean_flag(self, tmp_path, capsys):
        out = tmp_path / "epc.csv"
        main(["generate", str(out), "--certificates", "100", "--clean"])
        assert "clean certificates" in capsys.readouterr().out

    def test_suggest_prints_advice(self, capsys):
        code = main(["suggest", "--certificates", "400", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested:" in out
        assert "k_range" in out

    def test_run_writes_dashboard(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        code = main(
            [
                "run", str(out),
                "--certificates", "800", "--seed", "3",
                "--stakeholder", "citizen", "--granularity", "district",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "dashboard written to" in capsys.readouterr().out

    def test_run_with_auto_config(self, tmp_path):
        out = tmp_path / "dash.html"
        code = main(
            ["run", str(out), "--certificates", "800", "--seed", "3", "--auto-config"]
        )
        assert code == 0
        assert out.exists()

    def test_serve_starts_under_render_faults(self, monkeypatch, capsys):
        # a failing startup render leaves its route cold instead of
        # killing the server before it binds
        from repro.serving import ArtifactServer

        started = []
        monkeypatch.setattr(
            ArtifactServer, "serve",
            lambda self, *args, **kwargs: started.append(self),
        )
        code = main(
            [
                "serve", "--certificates", "400", "--seed", "4",
                "--fault-plan", "serve.request:transient*3;seed=5",
            ]
        )
        assert code == 0
        (server,) = started
        assert "pre-rendered 3/6 artifacts" in capsys.readouterr().out
        # the cold routes render on their first request
        statuses = {server.respond("GET", p).status for p in server.store.paths()}
        assert statuses == {200}
