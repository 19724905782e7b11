"""Artifact integrity doctor + CLI error taxonomy exit codes.

The doctor must identify each artifact kind from its content, validate
it with the same loaders the engine uses, and map failures onto the
taxonomy's exit codes — 2 for bad input files, 3 for corrupt or
mismatched checkpoints, 4 for degraded runs — with one-line messages
and never a traceback.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.doctor import (
    KIND_FAULT_PLAN,
    KIND_PERF_BASELINE,
    KIND_RISK_INDEX,
    KIND_SCAN_CHECKPOINT,
    KIND_STUDY_CHECKPOINT,
    KIND_UNKNOWN,
    Diagnosis,
    diagnose_file,
    diagnose_paths,
    exit_code_for,
)
from repro.ecosystem.delta import RangeRecord, world_range_digest
from repro.experiment import ScanCheckpoint, StudyCheckpoint, run_sharded_scan
from repro.faultsim.plan import FaultPlan, ShardCrashSpec, StudyCrashSpec
from repro.util.errors import (
    EXIT_BAD_INPUT,
    EXIT_CORRUPT_CHECKPOINT,
    EXIT_DEGRADED,
    CheckpointCorruptError,
)


@pytest.fixture()
def study_ckpt(tmp_path):
    path = tmp_path / "study.ckpt"
    StudyCheckpoint(path).save({"seed": 5}, 42, {10: 1},
                               {"mode": "batch", "sent": 99})
    return path


@pytest.fixture(scope="module")
def scan_aggregates():
    return run_sharded_scan(9, 12, jobs=1)


def _scan_record(start, stop, aggregates):
    return RangeRecord(start, stop, world_range_digest(9, start, stop, {}),
                       aggregates)


@pytest.fixture()
def scan_ckpt(tmp_path, scan_aggregates):
    path = tmp_path / "scan.ckpt"
    ScanCheckpoint(path, seed=9, max_rank=12).record(
        _scan_record(1, 13, scan_aggregates))
    return path


@pytest.fixture()
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    plan = FaultPlan(seed=3, study_crashes=(StudyCrashSpec(day=4,
                                                           failures=1),))
    path.write_text(plan.to_json())
    return path


@pytest.fixture()
def risk_index_file(tmp_path):
    from repro.service import TypoRiskIndex

    path = tmp_path / "risk.index"
    TypoRiskIndex(11, 60).save(path)
    return path


class TestKindDetectionAndHealth:
    def test_healthy_study_checkpoint(self, study_ckpt):
        diagnosis = diagnose_file(study_ckpt)
        assert diagnosis.kind == KIND_STUDY_CHECKPOINT
        assert diagnosis.ok and diagnosis.exit_code == 0
        assert diagnosis.details["next_day"] == 42
        assert diagnosis.details["mode"] == "batch"

    def test_healthy_scan_checkpoint(self, scan_ckpt):
        diagnosis = diagnose_file(scan_ckpt)
        assert diagnosis.kind == KIND_SCAN_CHECKPOINT
        assert diagnosis.ok
        assert diagnosis.details["shards_done"] == 1

    def test_healthy_fault_plan(self, plan_file):
        diagnosis = diagnose_file(plan_file)
        assert diagnosis.kind == KIND_FAULT_PLAN
        assert diagnosis.ok and diagnosis.details["empty"] is False

    def test_repo_perf_baseline_is_healthy(self):
        diagnosis = diagnose_file("BENCH_perf.json")
        assert diagnosis.kind == KIND_PERF_BASELINE
        assert diagnosis.ok

    def test_repo_bench_record_is_found_by_its_tag(self, tmp_path, capsys):
        """The bench record is a tagged format: a copy under a name that
        says nothing is still recognized, and every section validates."""
        from repro.util.perf import BENCH_FORMAT, load_bench

        data = json.loads(Path("BENCH_perf.json").read_bytes())
        assert data["format"] == BENCH_FORMAT
        copy = tmp_path / "renamed.json"
        copy.write_text(json.dumps(data))
        diagnosis = diagnose_file(copy)
        assert diagnosis.kind == KIND_PERF_BASELINE
        assert diagnosis.ok and diagnosis.exit_code == 0
        assert diagnosis.details["sections"] == len(
            load_bench("BENCH_perf.json"))
        assert main(["doctor", "BENCH_perf.json"]) == 0
        assert "ok   perf-baseline" in capsys.readouterr().out

    def test_untagged_bench_of_the_old_layout_exits_two(self, tmp_path,
                                                         capsys):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"baseline": {"study": {}},
                                    "history": []}))
        assert main(["doctor", str(path)]) == EXIT_BAD_INPUT
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("FAIL perf-baseline")

    def test_healthy_risk_index(self, risk_index_file):
        diagnosis = diagnose_file(risk_index_file)
        assert diagnosis.kind == KIND_RISK_INDEX
        assert diagnosis.ok and diagnosis.exit_code == 0
        assert diagnosis.details["seed"] == 11
        assert diagnosis.details["max_rank"] == 60
        assert diagnosis.details["head_buckets"] > 0

    def test_unrecognized_json_is_unknown(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_UNKNOWN
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_BAD_INPUT

    def test_missing_file(self, tmp_path):
        diagnosis = diagnose_file(tmp_path / "absent.json")
        assert not diagnosis.ok
        assert "does not exist" in diagnosis.problems[0]


class TestCorruptionDetection:
    def test_tampered_study_checkpoint_fails_digest(self, study_ckpt):
        data = json.loads(study_ckpt.read_text())
        data["state"]["sent"] = 10_000
        study_ckpt.write_text(json.dumps(data))
        diagnosis = diagnose_file(study_ckpt)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT
        assert "digest" in diagnosis.problems[0]

    def test_torn_study_checkpoint(self, study_ckpt):
        study_ckpt.write_text(study_ckpt.read_text()[:60])
        diagnosis = diagnose_file(study_ckpt)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT
        assert "torn or truncated" in diagnosis.problems[0]

    def test_torn_scan_checkpoint_is_clear_error_not_json_error(
            self, scan_ckpt):
        """The satellite contract: a truncated scan checkpoint must
        surface as a doctor-style taxonomy error, never a raw
        json.JSONDecodeError."""
        scan_ckpt.write_text(scan_ckpt.read_text()[:100])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            ScanCheckpoint(scan_ckpt, seed=9, max_rank=12)
        diagnosis = diagnose_file(scan_ckpt)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_scan_checkpoint_with_mangled_shard_payload(self, scan_ckpt):
        data = json.loads(scan_ckpt.read_text())
        data["ranges"][0] = {"nonsense": True}
        scan_ckpt.write_text(json.dumps(data))
        diagnosis = diagnose_file(scan_ckpt)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_tampered_risk_index_exits_three(self, risk_index_file):
        data = json.loads(risk_index_file.read_text())
        data["max_rank"] = 61
        risk_index_file.write_text(json.dumps(data, sort_keys=True))
        diagnosis = diagnose_file(risk_index_file)
        assert diagnosis.kind == KIND_RISK_INDEX
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_torn_risk_index_exits_three(self, risk_index_file):
        # torn mid-write: unparseable, so the kind falls back to the
        # filename — "index" must map to the corrupt-state exit code
        risk_index_file.write_text(risk_index_file.read_text()[:90])
        diagnosis = diagnose_file(risk_index_file)
        assert diagnosis.kind == KIND_RISK_INDEX
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT
        assert "torn or truncated" in diagnosis.problems[0]

    def test_invalid_fault_plan_values(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = json.loads(FaultPlan(seed=3).to_json())
        plan["study_crashes"] = [{"day": -4, "failures": 1}]
        path.write_text(json.dumps(plan))
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_FAULT_PLAN
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_BAD_INPUT

    def test_perf_baseline_missing_study_section(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"baseline": {"scan": {}}}))
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_PERF_BASELINE
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_BAD_INPUT

    def test_worst_finding_wins(self, tmp_path, study_ckpt):
        junk = tmp_path / "junk.json"
        junk.write_text("[]")
        study_ckpt.write_text(study_ckpt.read_text()[:50])
        diagnoses = diagnose_paths([junk, study_ckpt])
        assert exit_code_for(diagnoses) == EXIT_CORRUPT_CHECKPOINT
        assert exit_code_for([diagnoses[0]]) == EXIT_BAD_INPUT
        assert exit_code_for([Diagnosis(path=junk, kind=KIND_UNKNOWN,
                                        ok=True)]) == 0


class TestDoctorCli:
    def test_all_healthy_exits_zero(self, study_ckpt, plan_file, capsys):
        assert main(["doctor", str(study_ckpt), str(plan_file),
                     "BENCH_perf.json"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 3

    def test_corrupt_checkpoint_exits_three(self, study_ckpt, capsys):
        study_ckpt.write_text(study_ckpt.read_text()[:60])
        assert main(["doctor", str(study_ckpt)]) == EXIT_CORRUPT_CHECKPOINT
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "1 of 1 artifacts failed" in captured.err

    def test_bad_plan_exits_two(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 1, "retry": {"max_attempts": 0}}')
        assert main(["doctor", str(path)]) == EXIT_BAD_INPUT
        assert "FAIL" in capsys.readouterr().out


class TestCliTaxonomy:
    def test_malformed_fault_plan_is_one_line_exit_two(self, tmp_path,
                                                       capsys):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        code = main(["study", "--fault-plan", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: invalid fault plan")

    def test_unreadable_fault_plan_path(self, tmp_path, capsys):
        code = main(["study", "--fault-plan", str(tmp_path / "nope.json")])
        assert code == EXIT_BAD_INPUT
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_study_resume_missing_checkpoint_exits_three(self, tmp_path,
                                                         capsys):
        code = main(["study", "--resume", str(tmp_path / "none.ckpt")])
        captured = capsys.readouterr()
        assert code == EXIT_CORRUPT_CHECKPOINT
        assert "does not exist" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.chaos
    def test_degraded_scan_exits_four(self, tmp_path, capsys):
        plan = FaultPlan(seed=5, shard_crashes=(
            ShardCrashSpec(rank=3, failures=99, mode="crash"),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code = main(["--seed", "9", "scan", "--ranks", "24",
                     "--fault-plan", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_DEGRADED
        assert "DEGRADED" in captured.err
        assert "never" in captured.err and "scanned" in captured.err


class TestServicePlanSchema:
    """The doctor understands the extended (service-spell) plan schema."""

    def test_healthy_service_plan_reports_spell_count(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.service_chaos_demo(
            9, lookups=10_000).to_json())
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_FAULT_PLAN
        assert diagnosis.ok and diagnosis.exit_code == 0
        assert diagnosis.details["service_spells"] == 4
        assert diagnosis.details["empty"] is False

    def test_unknown_spell_kind_exits_two_not_traceback(self, tmp_path,
                                                        capsys):
        path = tmp_path / "plan.json"
        plan = json.loads(FaultPlan(seed=3).to_json())
        plan["service_spells"] = [{"start_lookup": 0, "end_lookup": 5,
                                   "kind": "quantum_flux"}]
        path.write_text(json.dumps(plan))
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_FAULT_PLAN
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_BAD_INPUT
        assert main(["doctor", str(path)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err

    def test_bad_service_window_exits_two(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = json.loads(FaultPlan(seed=3).to_json())
        plan["service_spells"] = [{"start_lookup": 9, "end_lookup": 2,
                                   "kind": "index_error"}]
        path.write_text(json.dumps(plan))
        diagnosis = diagnose_file(path)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_BAD_INPUT


class TestEnvelopeEdges:
    def test_directory_is_one_line_exit_two(self, tmp_path, capsys):
        # named like a checkpoint: an unreadable path is still a bad
        # argument (exit 2), not corrupt durable state (exit 3)
        directory = tmp_path / "run.ckpt"
        directory.mkdir()
        diagnosis = diagnose_file(directory)
        assert diagnosis.kind == KIND_UNKNOWN
        assert not diagnosis.ok and diagnosis.exit_code == EXIT_BAD_INPUT
        assert main(["doctor", str(directory)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "FAIL" in captured.out

    def test_out_of_range_shard_key_is_refused_by_engine_and_doctor(
            self, tmp_path, scan_aggregates):
        """A well-formed envelope whose shard key lies past max_rank + 1:
        the engine's loader and the doctor must agree it is corrupt."""
        from repro.ecosystem.delta import _config_digest
        from repro.experiment.parallel import SCAN_CHECKPOINT_FORMAT
        from repro.util.artifact import write_segment

        path = tmp_path / "scan.ckpt"
        write_segment(path, {
            "format": SCAN_CHECKPOINT_FORMAT, "prev": None, "seed": 9,
            "max_rank": 12, "config_digest": _config_digest(None),
            "exclude": [],
            "ranges": [_scan_record(1, 13, scan_aggregates).canonical_dict(),
                       _scan_record(13, 40,
                                    scan_aggregates).canonical_dict()]})
        with pytest.raises(CheckpointCorruptError, match="13-40"):
            ScanCheckpoint(path, seed=9, max_rank=12)
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_SCAN_CHECKPOINT
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT
