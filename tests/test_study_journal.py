"""The journaled study checkpoint under kills, and what it writes.

A bounded-memory sink run saves one delta segment per checkpoint.  A
kill at any segment boundary, in the middle of an append (a half-written
line) or in the middle of a compaction must resume to the uninterrupted
sink digest; replaying the journal through segment *k* must give the
full state a capture takes at that boundary; and the bytes written must
stay near the size of the final state instead of growing with the
square of the window.
"""

import json
import os

import pytest

from repro.experiment import (
    ExperimentConfig,
    RecordDigestSink,
    StudyCheckpoint,
    StudyRunner,
    config_identity,
)
from repro.experiment import checkpoint as checkpoint_module
from repro.experiment.classify import StreamingClassifier
from repro.util import artifact
from repro.util.artifact import canonical_json
from repro.util.journal import Appended, materialize
from repro.util.perf import PerfRegistry

CHEAP = dict(seed=41, spam_scale=1e-5, ham_scale=0.5, outage_spans=())
SINK_CONFIG = ExperimentConfig(streaming_classify=True,
                               retain_messages=False, **CHEAP)
#: the durable benchmark's study: seed 5, spam at 5e-5, bounded memory
BENCH_CONFIG = ExperimentConfig(seed=5, spam_scale=5e-5,
                                streaming_classify=True,
                                retain_messages=False)


#: a cadence at which the cheap run's journal compacts
COMPACTING_INTERVAL = 5


def _run(path, config=SINK_CONFIG, interval=50, resume=False):
    sink = RecordDigestSink()
    results = StudyRunner(config).run(record_sink=sink, checkpoint_path=path,
                                      checkpoint_interval=interval,
                                      resume=resume)
    return sink, results


def _lines(path):
    return path.read_bytes().split(b"\n")[:-1]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """A crash-free durable run: its sink digest and its journal lines."""
    path = tmp_path_factory.mktemp("journal") / "study.ckpt"
    sink, _ = _run(path)
    return sink.digest(), _lines(path)


def _count_written(monkeypatch):
    """Count every byte the artifact module writes."""
    written = [0]
    write = artifact._write_chunks

    def counting(handle, chunks):
        chunks = list(chunks)
        written[0] += sum(len(chunk.encode() if isinstance(chunk, str)
                              else chunk) for chunk in chunks)
        write(handle, chunks)

    monkeypatch.setattr(artifact, "_write_chunks", counting)
    return written


@pytest.mark.chaos
class TestResumeAtEveryPoint:
    def test_uninterrupted_durable_run_matches_a_plain_streaming_run(
            self, uninterrupted):
        sink = RecordDigestSink()
        StudyRunner(SINK_CONFIG).run(record_sink=sink)
        assert uninterrupted[0] == sink.digest()
        assert len(uninterrupted[1]) == 5

    def test_kill_after_each_segment_resumes_identically(
            self, tmp_path, uninterrupted):
        digest, lines = uninterrupted
        for count in range(1, len(lines) + 1):
            path = tmp_path / f"killed-after-{count}.ckpt"
            path.write_bytes(b"".join(line + b"\n"
                                      for line in lines[:count]))
            sink, results = _run(path, resume=True)
            assert sink.digest() == digest, f"after segment {count}"
            assert (results.robustness["durability"]["resumed_from_day"]
                    == json.loads(lines[count - 1])["next_day"])

    def test_kill_mid_append_resumes_from_the_segment_before(
            self, tmp_path, monkeypatch, uninterrupted):
        path = tmp_path / "study.ckpt"
        write = artifact._write_chunks
        appends = [0]

        def torn_third_segment(handle, chunks):
            # appends write to the journal itself; base writes go to
            # the sibling temp file
            if getattr(handle, "name", "") == str(path):
                appends[0] += 1
                if appends[0] == 2:
                    data = b"".join(chunk.encode()
                                    if isinstance(chunk, str)
                                    else bytes(chunk) for chunk in chunks)
                    write(handle, [data[:len(data) // 2]])
                    raise OSError("killed mid-append")
            write(handle, chunks)

        monkeypatch.setattr(artifact, "_write_chunks", torn_third_segment)
        with pytest.raises(OSError, match="mid-append"):
            _run(path)
        monkeypatch.undo()
        assert not path.read_bytes().endswith(b"\n")
        checkpoint = StudyCheckpoint(path)
        assert checkpoint.load()["next_day"] == 100
        assert checkpoint.torn_tail and checkpoint.segments == 2

        sink, results = _run(path, resume=True)
        assert sink.digest() == uninterrupted[0]
        assert results.robustness["durability"]["resumed_from_day"] == 100
        healed = StudyCheckpoint(path)
        healed.load()
        assert not healed.torn_tail

    def test_kill_mid_compaction_resumes_identically(self, tmp_path,
                                                     monkeypatch,
                                                     uninterrupted):
        path = tmp_path / "study.ckpt"
        replace = artifact.os.replace
        calls = [0]

        def failing_second_replace(src, dst):
            # the first replace publishes the base segment, the second
            # is the first compaction
            calls[0] += 1
            if calls[0] == 2:
                raise OSError("killed mid-compaction")
            replace(src, dst)

        monkeypatch.setattr(artifact.os, "replace", failing_second_replace)
        with pytest.raises(OSError, match="mid-compaction"):
            _run(path, interval=COMPACTING_INTERVAL)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == [path.name]
        before = StudyCheckpoint(path)
        killed_at = before.load()["next_day"]
        assert before.segments > 1

        sink, results = _run(path, interval=COMPACTING_INTERVAL,
                             resume=True)
        assert sink.digest() == uninterrupted[0]
        assert results.robustness["durability"]["resumed_from_day"] \
            == killed_at

    def test_pending_items_share_the_fold_summaries_after_restore(
            self, tmp_path, monkeypatch, uninterrupted):
        contexts = []
        restore = StreamingClassifier.restore_state

        def recording_restore(self, data):
            restore(self, data)
            contexts.append(self.context)

        monkeypatch.setattr(StreamingClassifier, "restore_state",
                            recording_restore)
        path = tmp_path / "study.ckpt"
        path.write_bytes(b"".join(line + b"\n"
                                  for line in uninterrupted[1][:3]))
        sink, _ = _run(path, resume=True)
        assert sink.digest() == uninterrupted[0]
        [context] = contexts
        # each summary is persisted once, on the fold side
        state = StudyCheckpoint(path).load()["state"]["classifier"]
        assert "summary" not in state["pending"][0][1]

        fresh = StreamingClassifier(context, {}, PerfRegistry(),
                                    record_sink=RecordDigestSink())
        fresh.restore_state(state)
        provisional = fresh.fold.provisional
        assert len(fresh._pending) == len(provisional) > 0
        for (index, item), (fold_index, summary) in zip(fresh._pending,
                                                        provisional):
            assert index == fold_index
            assert item.summary is summary
        live = fresh.state_dict()
        assert isinstance(live["pending"], Appended)
        assert live["pending"].items is fresh._pending
        assert json.loads(canonical_json(materialize(live))) == state


@pytest.mark.chaos
def test_replay_through_each_segment_equals_the_full_capture(tmp_path,
                                                             monkeypatch):
    """The full capture is the oracle: after every save, the journal on
    disk replays to exactly the state the runner captured."""
    path = tmp_path / "study.ckpt"
    copy = tmp_path / "replayed.ckpt"
    identity = config_identity(SINK_CONFIG)
    segments, mismatches = [], []
    save = checkpoint_module.StudyCheckpoint.save

    def checked_save(self, identity_, next_day, crash_attempts, state):
        save(self, identity_, next_day, crash_attempts, state)
        journal = path.read_bytes()
        segments.append(journal.count(b"\n"))
        copy.write_bytes(journal)
        replayed = StudyCheckpoint(copy).load(identity)["state"]
        if canonical_json(replayed) != canonical_json(materialize(state)):
            mismatches.append(next_day)

    monkeypatch.setattr(checkpoint_module.StudyCheckpoint, "save",
                        checked_save)
    _run(path, interval=COMPACTING_INTERVAL)
    monkeypatch.undo()
    assert mismatches == []
    assert max(segments) > 2
    assert any(after < before
               for before, after in zip(segments, segments[1:])), \
        "no compaction: the oracle only saw appends"


@pytest.mark.chaos
class TestBytesWritten:
    def test_interval_21_writes_at_most_one_and_a_half_final_states(
            self, tmp_path, monkeypatch):
        written = _count_written(monkeypatch)
        path = tmp_path / "study.ckpt"
        _run(path, config=BENCH_CONFIG, interval=21)
        monkeypatch.undo()
        payload = StudyCheckpoint(path).load()
        compacted = tmp_path / "compacted.ckpt"
        StudyCheckpoint(compacted).save(
            payload["config"], payload["next_day"],
            payload["crash_attempts"], payload["state"])
        final = compacted.stat().st_size
        assert written[0] <= 1.5 * final, (written[0], final)

    def test_daily_checkpoints_write_under_100_mb_and_compact(
            self, tmp_path, monkeypatch):
        written = _count_written(monkeypatch)
        bases = [0]
        write_segment = checkpoint_module.write_segment

        def counting_bases(path, payload, at=None):
            bases[0] += at is None
            return write_segment(path, payload, at)

        monkeypatch.setattr(checkpoint_module, "write_segment",
                            counting_bases)
        path = tmp_path / "study.ckpt"
        _, results = _run(path, config=BENCH_CONFIG, interval=1)
        monkeypatch.undo()
        assert results.robustness["durability"]["checkpoints_written"] \
            == 225
        assert bases[0] > 1, "compaction never fired"
        assert written[0] <= 100 * 1024 * 1024, written[0]
