"""Atomic file writes and the artifact envelope every persisted format shares.

A failed write never tears or litters the target, and each of the five
enveloped formats keeps the same save/load contract.  The study and
scan checkpoints are journals of envelopes; their one-segment forms are
in the five-format contract, and the journal contract below states the
same properties per segment.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from repro.doctor import KIND_STUDY_CHECKPOINT, diagnose_file
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.delta import RangeRecord, world_range_digest
from repro.experiment import ScanCheckpoint, StudyCheckpoint, run_sharded_scan
from repro.experiment.parallel import SCAN_CHECKPOINT_FORMAT
from repro.features.schema import (
    DOMAIN_FEATURES,
    FEATURE_SCHEMA_VERSION,
    MESSAGE_FEATURES,
)
from repro.learned.model import LaneModel, TypoModel, load_model, save_model
from repro.scenario.timeline import Scenario
from repro.service.bench import record_query_service
from repro.service.index import TypoRiskIndex
from repro.util import artifact
from repro.util.artifact import json_digest, save_artifact, write_atomic
from repro.util.errors import (
    EXIT_CORRUPT_CHECKPOINT,
    CheckpointCorruptError,
    CheckpointMismatchError,
)
from repro.util.journal import Appended, Counted, materialize


def _fail_replace(src, dst):
    raise OSError("simulated crash before the rename")


def test_write_creates_and_replaces(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(path, "first\n")
    assert path.read_text(encoding="utf-8") == "first\n"
    write_atomic(str(path), "second é\n")
    assert path.read_text(encoding="utf-8") == "second é\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_failed_replace_keeps_previous_bytes(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_perf.json"
    write_atomic(path, '{"baseline": 1}\n')
    before = path.read_bytes()
    monkeypatch.setattr(artifact.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="simulated crash"):
        write_atomic(path, '{"baseline": 2, "torn": true}\n')
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["BENCH_perf.json"]


def test_failed_first_write_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(artifact.os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write_atomic(tmp_path / "new.json", "{}\n")
    assert os.listdir(tmp_path) == []


def test_bench_section_recorder_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_perf.json"
    record_query_service({"lookups_per_sec": 1.0}, path)
    before = path.read_bytes()
    assert json.loads(before)["query_service"]["baseline"] == {
        "lookups_per_sec": 1.0}
    monkeypatch.setattr(artifact.os, "replace", _fail_replace)
    with pytest.raises(OSError):
        record_query_service({"lookups_per_sec": 2.0}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["BENCH_perf.json"]


# -- the envelope contract, once per persisted format -------------------------


@dataclass(frozen=True)
class FormatCase:
    """How the contract drives one format: build variant ``i``, save it,
    load it back, and view it as a comparable value."""

    name: str
    kind: str
    build: Callable[[int], object]
    save: Callable[[object, object], None]
    load: Callable[[object], object]
    view: Callable[[object], object]
    #: edit one stored value in place, leaving the digest stale
    tamper: Callable[[dict], None]
    #: rewrite a current file into the layout written before the envelope
    legacy: Optional[Callable[[dict], dict]] = None


def _study_save(payload, path):
    StudyCheckpoint(path).save(payload["config"], payload["next_day"],
                               payload["crash_attempts"], payload["state"])


def _study_view(payload):
    return {key: payload[key]
            for key in ("config", "next_day", "crash_attempts", "state")}


def _study_tamper(data):
    data["state"]["sent"] += 1


def _study_legacy(data):
    data = dict(data, format="repro-study-checkpoint@1")
    data["payload_sha256"] = data.pop("digest")
    return data


@functools.lru_cache(maxsize=1)
def _scan_shard():
    return run_sharded_scan(9, 12, jobs=1)


def _scan_build(i):
    payload = _scan_shard().canonical_dict()
    payload["registered_count"] += i
    return ScanAggregates.from_canonical_dict(payload)


def _scan_save(aggregates, path):
    ScanCheckpoint(path, seed=9, max_rank=12).record(RangeRecord(
        1, 13, world_range_digest(9, 1, 13, {}), aggregates))


def _scan_tamper(data):
    # the hole the envelope closes: a shard count edited by hand used to
    # load silently and shift the merged totals
    data["ranges"][0]["aggregates"]["registered_count"] += 5


def _scan_legacy(data):
    return {key: data[key] for key in ("seed", "max_rank", "ranges")}


def _lane(name, features, bias):
    width = len(features)
    return LaneModel(lane=name, features=features, mean=np.zeros(width),
                     scale=np.ones(width), weights=np.linspace(-1, 1, width),
                     bias=bias, stumps=())


def _model_build(i):
    return TypoModel(seed=i, schema_version=FEATURE_SCHEMA_VERSION,
                     domain=_lane("domain", DOMAIN_FEATURES, 0.25 + i),
                     message=_lane("message", MESSAGE_FEATURES, -0.5),
                     provenance={"note": "contract"})


def _model_tamper(data):
    data["domain"]["bias"] += 1.0


FORMATS = [
    FormatCase(
        "study-checkpoint", "study-checkpoint",
        build=lambda i: {"config": {"seed": 5}, "next_day": 40 + i,
                         "crash_attempts": {"10": 1},
                         "state": {"mode": "batch", "sent": 99}},
        save=_study_save, load=lambda path: StudyCheckpoint(path).load(),
        view=_study_view, tamper=_study_tamper, legacy=_study_legacy),
    FormatCase(
        "scan-checkpoint", "scan-checkpoint", build=_scan_build,
        save=_scan_save,
        load=lambda path: ScanCheckpoint(
            path, seed=9, max_rank=12).records[(1, 13)].aggregates,
        view=lambda aggregates: aggregates.canonical_dict(),
        tamper=_scan_tamper, legacy=_scan_legacy),
    FormatCase(
        "risk-index", "risk-index",
        build=lambda i: TypoRiskIndex(11, 60, day=i),
        save=lambda index, path: index.save(path),
        load=TypoRiskIndex.load,
        view=lambda index: index.canonical_dict(),
        tamper=lambda data: data.__setitem__("day", data["day"] + 1)),
    FormatCase(
        "typo-model", "typo-model", build=_model_build,
        save=lambda model, path: save_model(model, str(path)),
        load=lambda path: load_model(str(path)),
        view=lambda model: model.to_payload(), tamper=_model_tamper),
    FormatCase(
        "scenario", "scenario",
        build=lambda i: Scenario(seed=1, name=f"contract-{i}", max_rank=100),
        save=lambda scenario, path: scenario.save(path),
        load=Scenario.load,
        view=lambda scenario: scenario.to_dict(),
        tamper=lambda data: data.__setitem__("churn_rate", 0.5)),
]


@pytest.fixture(params=FORMATS, ids=lambda case: case.name)
def case(request):
    return request.param


def _saved(case, tmp_path, i=0):
    path = tmp_path / f"{case.name}.json"
    case.save(case.build(i), path)
    return path


def _rewrite(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


class TestEnvelopeContract:
    def test_round_trip(self, case, tmp_path):
        path = _saved(case, tmp_path)
        assert case.view(case.load(path)) == case.view(case.build(0))

    def test_digest_covers_every_other_key(self, case, tmp_path):
        data = json.loads(_saved(case, tmp_path).read_bytes())
        digest = data.pop("digest")
        assert digest == json_digest(data)
        assert data["format"].startswith("repro-")

    def test_second_save_leaves_one_file(self, case, tmp_path):
        path = _saved(case, tmp_path)
        case.save(case.build(1), path)
        assert os.listdir(tmp_path) == [path.name]
        assert case.view(case.load(path)) == case.view(case.build(1))

    def test_failed_replace_keeps_previous_bytes(self, case, tmp_path,
                                                 monkeypatch):
        path = _saved(case, tmp_path)
        before = path.read_bytes()
        monkeypatch.setattr(artifact.os, "replace", _fail_replace)
        with pytest.raises(OSError, match="simulated crash"):
            case.save(case.build(1), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_tampered_value_is_corrupt(self, case, tmp_path):
        path = _saved(case, tmp_path)
        data = json.loads(path.read_bytes())
        case.tamper(data)
        _rewrite(path, data)
        with pytest.raises(CheckpointCorruptError, match="digest"):
            case.load(path)
        assert diagnose_file(path).exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_truncated_file_is_corrupt(self, case, tmp_path):
        path = _saved(case, tmp_path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            case.load(path)
        assert diagnose_file(path).exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_foreign_tag_is_mismatch(self, case, tmp_path):
        path = _saved(case, tmp_path)
        data = json.loads(path.read_bytes())
        data["format"] = "other-artifact@7"
        _rewrite(path, data)
        with pytest.raises(CheckpointMismatchError):
            case.load(path)

    @pytest.mark.parametrize(
        "case", [case for case in FORMATS if case.legacy is not None],
        ids=lambda case: case.name)
    def test_pre_envelope_layout_is_refused(self, case, tmp_path):
        path = _saved(case, tmp_path)
        _rewrite(path, case.legacy(json.loads(path.read_bytes())))
        with pytest.raises(CheckpointMismatchError) as raised:
            case.load(path)
        assert raised.value.exit_code == EXIT_CORRUPT_CHECKPOINT
        assert ("start fresh" in str(raised.value)
                or "rescan" in str(raised.value))
        diagnosis = diagnose_file(path)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_doctor_names_the_kind(self, case, tmp_path):
        diagnosis = diagnose_file(_saved(case, tmp_path))
        assert diagnosis.ok, diagnosis.problems
        assert diagnosis.kind == case.kind


def test_scan_checkpoint_base_records_the_scan_identity(tmp_path):
    """``@3``: the base segment names the world config and the exclude
    set as well as the seed and universe, so a resume can refuse both."""
    path = tmp_path / "scan.ckpt"
    _scan_save(_scan_build(0), path)
    base = json.loads(path.read_bytes())
    assert base["format"] == SCAN_CHECKPOINT_FORMAT \
        == "repro-scan-checkpoint@3"
    assert {"seed", "max_rank", "config_digest", "exclude"} <= set(base)


def test_indented_model_from_before_the_envelope_still_loads(tmp_path):
    """Typo models used to be written with ``indent=2``; the digest never
    depended on layout, so those files load with the same digest."""
    path = tmp_path / "model.json"
    digest = save_model(_model_build(0), str(path))
    old_layout = json.dumps(json.loads(path.read_bytes()), indent=2) + "\n"
    path.write_text(old_layout, encoding="utf-8")
    assert load_model(str(path)).digest() == digest
    assert diagnose_file(path).ok


# -- the study journal: the envelope contract, per segment --------------------

JOURNAL_IDENTITY = {"seed": 5}


def _journal(path, saves=3):
    """Save ``saves`` days of a growing state; return the checkpoint and
    the full JSON state of each save."""
    checkpoint = StudyCheckpoint(path)
    log, counts, views = [], {}, []
    for day in range(saves):
        log.extend(f"mail-{day}-{i}" for i in range(day + 2))
        key = f"sender-{day % 2}"
        counts[key] = counts.get(key, 0) + 1
        state = {"mode": "sink", "sent": len(log),
                 "log": Appended(log, str.upper),
                 "classifier": {"counts": Counted(counts),
                                "seen": Appended(log)}}
        checkpoint.save(JOURNAL_IDENTITY, day + 1, {day: 1}, state)
        views.append(json.loads(json.dumps(materialize(state))))
    return checkpoint, views


def _lines(path):
    return path.read_bytes().split(b"\n")[:-1]


def _write_lines(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))


class TestStudyJournalContract:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _, views = _journal(path)
        payload = StudyCheckpoint(path).load(JOURNAL_IDENTITY)
        assert payload == {"config": JOURNAL_IDENTITY, "next_day": 3,
                           "crash_attempts": {"2": 1}, "state": views[-1]}

    def test_each_segment_digest_covers_its_other_keys(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        lines = _lines(path)
        assert len(lines) == 3
        previous = None
        for line in lines:
            data = json.loads(line)
            digest = data.pop("digest")
            assert digest == json_digest(data)
            assert data["format"] == "repro-study-journal@1"
            assert data["prev"] == previous
            previous = digest

    def test_delta_segments_hold_only_new_items(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        third = json.loads(_lines(path)[2])
        assert third["state"]["log"] == ["MAIL-2-0", "MAIL-2-1",
                                         "MAIL-2-2", "MAIL-2-3"]
        assert third["state"]["classifier"]["counts"] == {"sender-0": 2}
        assert "config" not in third

    def test_journal_is_one_file(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path, saves=6)
        assert os.listdir(tmp_path) == [path.name]
        StudyCheckpoint(path).save(JOURNAL_IDENTITY, 7, {}, {"mode": "x"})
        assert os.listdir(tmp_path) == [path.name]

    def test_append_raising_partway_keeps_earlier_segments(
            self, tmp_path, monkeypatch):
        path = tmp_path / "study.ckpt"
        checkpoint, views = _journal(path)
        write = artifact._write_chunks

        def half_then_crash(handle, chunks):
            data = b"".join(chunk.encode() if isinstance(chunk, str)
                            else bytes(chunk) for chunk in chunks)
            write(handle, [data[:len(data) // 2]])
            raise OSError("simulated crash mid-append")

        monkeypatch.setattr(artifact, "_write_chunks", half_then_crash)
        with pytest.raises(OSError, match="mid-append"):
            checkpoint.save(JOURNAL_IDENTITY, 9, {}, {"mode": "sink"})
        monkeypatch.undo()
        resumed = StudyCheckpoint(path)
        assert resumed.load()["state"] == views[-1]
        assert resumed.torn_tail and resumed.segments == 3
        diagnosis = diagnose_file(path)
        assert diagnosis.ok and diagnosis.exit_code == 0
        assert diagnosis.details["torn_tail"] is True
        assert "torn" in diagnosis.summary_line()
        # the next append cuts the torn tail before writing
        resumed.save(JOURNAL_IDENTITY, 10, {}, {"mode": "sink", "sent": 1})
        assert path.read_bytes().endswith(b"\n")
        assert len(_lines(path)) == 4
        assert StudyCheckpoint(path).load()["state"]["sent"] == 1

    def test_tampered_middle_segment_is_corrupt(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        lines = _lines(path)
        data = json.loads(lines[1])
        data["state"]["sent"] += 1
        lines[1] = json.dumps(data).encode()
        _write_lines(path, lines)
        with pytest.raises(CheckpointCorruptError, match="segment 2.*digest"):
            StudyCheckpoint(path).load()
        assert diagnose_file(path).exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_broken_prev_chain_is_corrupt(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        lines = _lines(path)
        _write_lines(path, [lines[0], lines[2]])
        with pytest.raises(CheckpointCorruptError, match="chain"):
            StudyCheckpoint(path).load()
        assert diagnose_file(path).exit_code == EXIT_CORRUPT_CHECKPOINT

    @pytest.mark.parametrize("damage", ["truncated", "garbled"])
    def test_unreadable_base_segment_is_corrupt(self, tmp_path, damage):
        path = tmp_path / "study.ckpt"
        _journal(path)
        lines = _lines(path)
        if damage == "truncated":
            path.write_bytes(lines[0][:len(lines[0]) // 2])
        else:
            _write_lines(path, [b"{not json"] + lines[1:])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            StudyCheckpoint(path).load()
        diagnosis = diagnose_file(path)
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT
        assert diagnosis.kind == KIND_STUDY_CHECKPOINT

    def test_foreign_tag_is_mismatch(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        lines = _lines(path)
        data = json.loads(lines[0])
        data["format"] = "other-artifact@7"
        _write_lines(path, [json.dumps(data).encode()] + lines[1:])
        with pytest.raises(CheckpointMismatchError):
            StudyCheckpoint(path).load()

    @pytest.mark.parametrize("tag", ["repro-study-checkpoint@2",
                                     "repro-study-checkpoint@1"])
    def test_single_snapshot_checkpoints_are_refused(self, tmp_path, tag):
        path = tmp_path / "study.ckpt"
        payload = {"format": tag, "config": JOURNAL_IDENTITY,
                   "next_day": 3, "crash_attempts": {},
                   "state": {"mode": "batch", "sent": 7}}
        save_artifact(path, payload)
        if tag.endswith("@1"):
            data = json.loads(path.read_bytes())
            data["payload_sha256"] = data.pop("digest")
            path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointMismatchError,
                           match="start fresh") as raised:
            StudyCheckpoint(path).load()
        assert raised.value.exit_code == EXIT_CORRUPT_CHECKPOINT
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_STUDY_CHECKPOINT
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_doctor_reports_kind_segments_and_next_day(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        diagnosis = diagnose_file(path)
        assert diagnosis.ok, diagnosis.problems
        assert diagnosis.kind == KIND_STUDY_CHECKPOINT
        assert diagnosis.details["segments"] == 3
        assert diagnosis.details["next_day"] == 3
        assert diagnosis.details["torn_tail"] is False
        assert diagnosis.notes == []

    def test_loaded_journal_takes_the_next_append(self, tmp_path):
        path = tmp_path / "study.ckpt"
        _journal(path)
        resumed = StudyCheckpoint(path)
        resumed.load(JOURNAL_IDENTITY)
        resumed.save(JOURNAL_IDENTITY, 4, {}, {"mode": "sink", "sent": 0})
        assert len(_lines(path)) == 4
        # a fresh object knows nothing of the file: it writes a base
        StudyCheckpoint(path).save(JOURNAL_IDENTITY, 5, {}, {"mode": "x"})
        assert len(_lines(path)) == 1

    def test_compaction_rewrites_one_base_segment(self, tmp_path):
        path = tmp_path / "study.ckpt"
        checkpoint = StudyCheckpoint(path)
        log = []
        line_counts = []
        for day in range(8):
            log.append(f"mail-{day}")
            # a large leaf written whole each save: superseded bytes grow
            # faster than the live log
            state = {"rng": [day] * 500, "log": Appended(log)}
            checkpoint.save(JOURNAL_IDENTITY, day + 1, {}, state)
            line_counts.append(len(_lines(path)))
        assert line_counts == [1, 2, 3, 1, 2, 3, 1, 2]
        payload = StudyCheckpoint(path).load()
        assert payload["state"] == {"rng": [7] * 500, "log": log}
        assert os.listdir(tmp_path) == [path.name]
