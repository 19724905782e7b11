"""Atomic file writes: a failed write never tears or litters the target."""

from __future__ import annotations

import json
import os

import pytest

from repro.service.bench import record_query_service
from repro.util import artifact
from repro.util.artifact import write_atomic


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
