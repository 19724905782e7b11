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
        # 16-rank ranges, so the two workers really split the scan
        assert main(["--seed", "5", "scan", "--ranks", "60",
                     "--jobs", "2", "--range-width", "16"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded

    def test_churned_checkpointed_scan_resumes_to_the_plain_digest(
            self, tmp_path, capsys):
        """``--days`` with ``--checkpoint``: a run cut short by a crash
        the retries cannot absorb, then resumed, prints the digest of
        the plain churned scan."""
        from repro.faultsim.plan import FaultPlan, ShardCrashSpec
        from repro.util.errors import EXIT_DEGRADED

        scan = ["--seed", "5", "scan", "--ranks", "300", "--days", "4",
                "--churn-rate", "0.02", "--range-width", "100"]
        checkpoint = ["--checkpoint", str(tmp_path / "scan.ckpt")]
        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(seed=5, shard_crashes=(
            ShardCrashSpec(rank=150, failures=99, mode="crash"),)).to_json())

        def digest(out):
            return [line for line in out.splitlines()
                    if line.startswith("aggregate digest:")]

        assert main(scan) == 0
        plain = digest(capsys.readouterr().out)
        assert main(scan + checkpoint + ["--fault-plan", str(plan)]) == \
            EXIT_DEGRADED
        cut = capsys.readouterr()
        assert "DEGRADED" in cut.err and digest(cut.out) != plain
        assert main(scan + checkpoint) == 0
        resumed = capsys.readouterr()
        assert "completed 1, resumed 2" in resumed.err
        assert digest(resumed.out) == plain

    def test_checkpoint_rerun_at_a_later_day_is_the_delta_rescan(
            self, tmp_path, capsys):
        """Day 0, then ``--days 3`` on the same checkpoint: only the
        ranges churn touched are rescanned, and the digest is the plain
        day-3 scan's."""
        import re

        scan = ["--seed", "5", "scan", "--ranks", "3000",
                "--range-width", "64"]
        checkpoint = ["--checkpoint", str(tmp_path / "scan.ckpt")]

        def digest(out):
            return [line for line in out.splitlines()
                    if line.startswith("aggregate digest:")]

        assert main(scan + checkpoint) == 0
        capsys.readouterr()
        assert main(scan + checkpoint + ["--days", "3"]) == 0
        delta = capsys.readouterr()
        resumed = int(re.search(r"resumed (\d+)", delta.err).group(1))
        assert 0 < resumed < 47          # ceil(3000 / 64) ranges
        assert main(scan + ["--days", "3"]) == 0
        assert digest(delta.out) == digest(capsys.readouterr().out)

    def test_delta_rescan_leaves_one_compact_segment(self, tmp_path,
                                                      capsys):
        """The ``--days 3`` re-run drops the day-0 records it superseded:
        the journal ends as one base segment about the size of a fresh
        day-3 checkpoint, and a further re-run resumes every range."""
        scan = ["--seed", "5", "scan", "--ranks", "3000",
                "--range-width", "64"]
        delta, fresh = tmp_path / "delta.ckpt", tmp_path / "fresh.ckpt"

        def digest(out):
            return [line for line in out.splitlines()
                    if line.startswith("aggregate digest:")]

        assert main(scan + ["--checkpoint", str(delta)]) == 0
        assert main(scan + ["--checkpoint", str(delta), "--days", "3"]) == 0
        capsys.readouterr()
        assert len(delta.read_bytes().splitlines()) == 1
        assert main(scan + ["--checkpoint", str(fresh), "--days", "3"]) == 0
        plain = digest(capsys.readouterr().out)
        size, fresh_size = delta.stat().st_size, fresh.stat().st_size
        assert abs(size - fresh_size) <= 0.1 * fresh_size
        assert main(scan + ["--checkpoint", str(delta), "--days", "3"]) == 0
        rerun = capsys.readouterr()
        assert "completed 0, resumed 47" in rerun.err
        assert digest(rerun.out) == plain

    @pytest.mark.parametrize("flag", [["--baseline", "scan.json"],
                                      ["--delta"]])
    def test_baseline_and_delta_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["scan", "--ranks", "60"] + flag)
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_bench_bench_out_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["serve-bench", "--ranks", "60", "--bench-out", "b.json"])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_checkpointed_scan_points_at_the_rerun(self, tmp_path, capsys,
                                                   monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._cmd_scan", interrupt)
        path = str(tmp_path / "scan.ckpt")
        assert main(["scan", "--ranks", "10", "--checkpoint", path]) == 130
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"checkpoint {path} keeps every finished rank range" in err

    def test_plain_study_prints_one_line(self, capsys):
        assert main(["study"]) == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"
