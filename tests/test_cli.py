"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_options(self):
        args = build_parser().parse_args(
            ["study", "--spam-scale", "1e-5", "--no-outage"])
        assert args.command == "study"
        assert args.spam_scale == 1e-5
        assert args.no_outage

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "typos", "gmail.com"])
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_typos_command(self, capsys):
        assert main(["typos", "gmail.com", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "DL-1 candidates of gmail.com" in out
        assert out.count("\n") >= 6

    def test_typos_fat_finger_only(self, capsys):
        main(["typos", "gmail.com", "--fat-finger-only", "--limit", "5"])
        out = capsys.readouterr().out
        assert "candidates of gmail.com" in out

    def test_check_typo_exits_nonzero(self, capsys):
        assert main(["check", "alice@gmial.com"]) == 1
        assert "gmail.com" in capsys.readouterr().out

    def test_check_clean_exits_zero(self, capsys):
        assert main(["check", "alice@gmail.com"]) == 0
        assert "looks fine" in capsys.readouterr().out

    def test_check_bare_domain(self, capsys):
        assert main(["check", "outlo0k.com"]) == 1
        assert "outlook.com" in capsys.readouterr().out

    def test_scan_command_small(self, capsys):
        assert main(["--seed", "3", "scan", "--targets", "5"]) == 0
        out = capsys.readouterr().out
        assert "registered ctypos" in out
        assert "starttls_ok" in out

    def test_scan_streaming_ranks(self, capsys):
        assert main(["--seed", "5", "scan", "--ranks", "60"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Table 6" in out
        assert "b-io.co" in out
        assert "aggregate digest: sha256:" in out

    def test_scan_streaming_jobs_digest_matches_serial(self, capsys):
        assert main(["--seed", "5", "scan", "--ranks", "60",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--seed", "5", "scan", "--ranks", "60",
                     "--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded

    def test_streaming_with_jobs_is_a_usage_error(self, capsys):
        assert main(["study", "--streaming", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--streaming" in err


class TestInterrupt:
    """Ctrl-C ends a run with one line and the SIGINT status, 130."""

    @pytest.fixture(autouse=True)
    def interrupted_study(self, monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._cmd_study", interrupt)

    def test_checkpointed_study_points_at_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ckpt")
        assert main(["study", "--checkpoint", path]) == 130
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "intact" in captured.err
        assert f"--resume {path}" in captured.err

    def test_plain_study_prints_one_line(self, capsys):
        assert main(["study"]) == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"
