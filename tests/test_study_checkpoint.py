"""Durable study engine: kill-at-any-day resume must be byte-identical.

The bar mirrors the scan-resilience suite's: a checkpointed run that is
killed at a day boundary (by an injected study crash) and resumed must
produce the *same record stream digest* as an uninterrupted run of the
same config — through retry backoff windows, collection outages, any
classify ``jobs`` count, and all three memory modes (batch, streaming
retain, bounded-memory sink).
"""

import dataclasses
import json

import pytest

from repro.experiment import (
    ExperimentConfig,
    RecordDigestSink,
    StudyCheckpoint,
    StudyRunner,
    config_identity,
    record_stream_digest,
    run_durable_study,
)
from repro.faultsim.plan import (
    FaultPlan,
    InjectedStudyCrash,
    OutageSpan,
    SmtpFaultSpell,
    StudyCrashSpec,
)
from repro.smtpsim.client import SendResult, SendStatus
from repro.smtpsim.message import EmailMessage
from repro.smtpsim.retryqueue import RetryPolicy, RetryQueue
from repro.util.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
)
from repro.util.artifact import json_digest
from repro.util.rand import SeededRng

CHEAP = dict(seed=41, spam_scale=1e-5, ham_scale=0.5, outage_spans=())


def faulty_plan(crashes=()):
    """Outage days 60–70 and an SMTP tempfail spell over days 100–110,
    so crash days inside those ranges land mid-outage / mid-backoff."""
    return FaultPlan(
        seed=7,
        collector_outages=(OutageSpan(start_day=60, end_day=70,
                                      mode="drop"),),
        smtp_spells=(SmtpFaultSpell(start_day=100, end_day=110,
                                    tempfail_probability=0.5),),
        study_crashes=tuple(crashes),
    )


CRASHES = (StudyCrashSpec(day=65, failures=1),    # mid-outage
           StudyCrashSpec(day=105, failures=2))   # mid-retry-backoff


@pytest.fixture(scope="module")
def faulty_baseline():
    """Uninterrupted run under the outage+tempfail plan (no crashes)."""
    config = ExperimentConfig(fault_plan=faulty_plan(), **CHEAP)
    return StudyRunner(config).run()


@pytest.fixture(scope="module")
def faulty_stream_baseline():
    config = ExperimentConfig(fault_plan=faulty_plan(),
                              streaming_classify=True, **CHEAP)
    return StudyRunner(config).run()


class TestKillResumeIdentity:
    @pytest.mark.chaos
    def test_batch_heals_to_identical_stream(self, tmp_path,
                                             faulty_baseline):
        config = ExperimentConfig(fault_plan=faulty_plan(CRASHES), **CHEAP)
        outcome = run_durable_study(config, tmp_path / "study.ckpt",
                                    checkpoint_interval=25)
        assert outcome.restarts == 3
        assert (record_stream_digest(outcome.results.records)
                == record_stream_digest(faulty_baseline.records))
        assert outcome.results.sent_count == faulty_baseline.sent_count
        assert (outcome.results.malicious_hashes
                == faulty_baseline.malicious_hashes)
        durability = outcome.results.robustness["durability"]
        assert durability["resumed_from_day"] == 105
        assert durability["crash_attempts"] == {"65": 2, "105": 3}

    @pytest.mark.chaos
    def test_streaming_retain_heals_identically(self, tmp_path,
                                                faulty_stream_baseline):
        config = ExperimentConfig(fault_plan=faulty_plan(CRASHES),
                                  streaming_classify=True, **CHEAP)
        outcome = run_durable_study(config, tmp_path / "study.ckpt",
                                    checkpoint_interval=25)
        assert (record_stream_digest(outcome.results.records)
                == record_stream_digest(faulty_stream_baseline.records))
        # retry and coverage accounting must also survive the resumes
        base = faulty_stream_baseline.robustness
        healed = outcome.results.robustness
        assert healed["retry"] == base["retry"]
        assert healed["faults"] == base["faults"]

    @pytest.mark.chaos
    def test_bounded_memory_sink_heals_identically(self, tmp_path,
                                                   faulty_stream_baseline):
        uninterrupted = RecordDigestSink()
        for record in faulty_stream_baseline.records:
            uninterrupted(record)
        config = ExperimentConfig(fault_plan=faulty_plan(CRASHES),
                                  streaming_classify=True,
                                  retain_messages=False, **CHEAP)
        outcome = run_durable_study(config, tmp_path / "study.ckpt",
                                    record_sink_factory=RecordDigestSink,
                                    checkpoint_interval=25)
        assert outcome.restarts == 3
        sink = outcome.record_sink
        assert sink.count == uninterrupted.count
        assert sink.true_typo_count == uninterrupted.true_typo_count
        assert sink.digest() == uninterrupted.digest()

    def test_jobs_count_does_not_invalidate_checkpoint(self, tmp_path,
                                                       faulty_baseline):
        """A checkpoint written at --jobs 1 resumes cleanly at --jobs 4."""
        crash = (StudyCrashSpec(day=50, failures=1),)
        config = ExperimentConfig(fault_plan=faulty_plan(crash),
                                  classify_jobs=1, **CHEAP)
        path = tmp_path / "study.ckpt"
        with pytest.raises(InjectedStudyCrash):
            StudyRunner(config).run(checkpoint_path=path,
                                    checkpoint_interval=25)
        resumed_config = dataclasses.replace(config, classify_jobs=2)
        results = StudyRunner(resumed_config).run(checkpoint_path=path,
                                                  resume=True,
                                                  checkpoint_interval=25)
        assert (record_stream_digest(results.records)
                == record_stream_digest(faulty_baseline.records))


class TestCoverageAcrossResume:
    @pytest.mark.chaos
    def test_outage_gaps_identical_across_resume_boundary(
            self, tmp_path, faulty_baseline):
        """A checkpoint taken *inside* an outage span must not split,
        duplicate, or lose the gap accounting."""
        crash = (StudyCrashSpec(day=64, failures=1),)
        config = ExperimentConfig(fault_plan=faulty_plan(crash), **CHEAP)
        # the crash itself forces the day-64 save, so a sparse interval
        # still resumes exactly at the mid-outage boundary
        outcome = run_durable_study(config, tmp_path / "study.ckpt",
                                    checkpoint_interval=50)
        assert (outcome.results.robustness["collector"]
                == faulty_baseline.robustness["collector"])


class TestCheckpointFileDiscipline:
    def _dummy_save(self, path, identity=None, next_day=3):
        checkpoint = StudyCheckpoint(path)
        checkpoint.save(identity or {"seed": 1}, next_day, {"2": 1},
                        {"mode": "batch", "sent": 7})
        return checkpoint

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._dummy_save(path)
        payload = StudyCheckpoint(path).load({"seed": 1})
        assert payload["next_day"] == 3
        assert StudyCheckpoint.crash_attempts_from(payload) == {"2": 1}

    def test_missing_file_is_corrupt_error(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            StudyCheckpoint(tmp_path / "absent.ckpt").load()

    def test_truncated_file_is_corrupt_error(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._dummy_save(path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            StudyCheckpoint(path).load()

    def test_bit_rot_fails_the_digest_check(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._dummy_save(path)
        data = json.loads(path.read_text())
        data["next_day"] = 200          # tampered, digest now stale
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointCorruptError, match="digest"):
            StudyCheckpoint(path).load()

    def test_identity_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._dummy_save(path, identity={"seed": 1})
        with pytest.raises(CheckpointMismatchError):
            StudyCheckpoint(path).load({"seed": 2})

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._dummy_save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_config_identity_excludes_classify_jobs(self):
        one = config_identity(ExperimentConfig(classify_jobs=1, **CHEAP))
        four = config_identity(ExperimentConfig(classify_jobs=4, **CHEAP))
        assert one == four
        other_seed = config_identity(
            ExperimentConfig(**dict(CHEAP, seed=99)))
        assert one != other_seed

    def test_default_config_identity_is_pinned(self):
        """Journals written before ``smtp_forwarding`` left the config
        carry ``"smtp_forwarding": true``; the identity still matches."""
        identity = config_identity(ExperimentConfig())
        assert identity["smtp_forwarding"] is True
        assert json_digest(identity) == (
            "4dfa17985aaec2839ca7c5084bbfa97b248d50518e76e9a22321bd7873ca7cb5")


class TestGuards:
    def test_crash_plan_without_checkpoint_is_config_error(self):
        config = ExperimentConfig(
            fault_plan=faulty_plan((StudyCrashSpec(day=1, failures=1),)),
            **CHEAP)
        with pytest.raises(ConfigError, match="checkpoint"):
            StudyRunner(config).run()

    def test_bounded_memory_without_sink_is_config_error(self, tmp_path):
        config = ExperimentConfig(streaming_classify=True,
                                  retain_messages=False, **CHEAP)
        with pytest.raises(ConfigError, match="sink"):
            StudyRunner(config).run(checkpoint_path=tmp_path / "c.ckpt")

    def test_non_restorable_sink_is_config_error(self, tmp_path):
        class BareSink:
            def emit(self, record):
                pass

        config = ExperimentConfig(streaming_classify=True,
                                  retain_messages=False, **CHEAP)
        with pytest.raises(ConfigError, match="state_dict"):
            StudyRunner(config).run(record_sink=BareSink(),
                                    checkpoint_path=tmp_path / "c.ckpt")

    def test_resume_requires_existing_checkpoint(self, tmp_path):
        config = ExperimentConfig(**CHEAP)
        with pytest.raises(CheckpointCorruptError, match="does not exist"):
            StudyRunner(config).run(checkpoint_path=tmp_path / "c.ckpt",
                                    resume=True)


class TestRetryQueueRoundTrip:
    """Property-style: serialize→restore preserves the backoff schedule
    and never double-bounces, across randomized queue populations."""

    def _populated_queue(self, rng):
        policy = RetryPolicy(max_attempts=4,
                             initial_delay_seconds=600.0,
                             backoff_factor=2.0,
                             max_queue_seconds=86_400.0)
        queue = RetryQueue(policy)
        tempfail = SendResult(status=SendStatus.TEMPFAIL,
                              recipient="x@example.org")
        for index in range(rng.randint(3, 10)):
            message = EmailMessage.create(
                from_addr=f"sender{index}@wild.example",
                to_addr=f"victim{index}@gmial.com",
                subject=f"msg {index}", body="hello " * rng.randint(1, 5))
            message.sequence = index + 1
            queue.offer(message, f"victim{index}@gmial.com", tempfail,
                        timestamp=float(rng.randint(0, 5_000)))
        # advance a random subset through extra failed attempts so the
        # population holds a mix of backoff positions
        for job in queue.due(float(10 ** 9)):
            if rng.random() < 0.6:
                queue.settle(job, tempfail, job.next_attempt)
            else:
                queue._pending.append(job)
        return queue

    @pytest.mark.parametrize("case_seed", range(6))
    def test_round_trip_preserves_schedule_and_dsns(self, case_seed):
        rng = SeededRng(case_seed, name="retry-prop")
        queue = self._populated_queue(rng)
        data = queue.to_canonical_dict()
        # canonical means canonical: a JSON round-trip changes nothing
        data = json.loads(json.dumps(data))
        restored = RetryQueue.from_canonical_dict(data)
        assert restored.to_canonical_dict() == queue.to_canonical_dict()
        assert restored.stats == queue.stats

        # identical future: both queues give up the same jobs with the
        # same DSNs at the horizon
        horizon = float(10 ** 9)
        original_dsns = queue.expire_remaining(horizon)
        restored_dsns = restored.expire_remaining(horizon)
        assert ([m.to_canonical_dict() for m in original_dsns]
                == [m.to_canonical_dict() for m in restored_dsns])

        # never double-bounce: expiring the already-expired restored
        # queue must not mint new DSNs
        assert restored.expire_remaining(horizon) == []
        assert restored.stats.dsn_sent == queue.stats.dsn_sent

    @pytest.mark.parametrize("case_seed", range(3))
    def test_restored_due_order_matches(self, case_seed):
        rng = SeededRng(case_seed + 50, name="retry-order")
        queue = self._populated_queue(rng)
        restored = RetryQueue.from_canonical_dict(
            queue.to_canonical_dict())
        cutoff = float(10 ** 9)
        original = [(j.sequence, j.next_attempt, j.attempts_made)
                    for j in queue.due(cutoff)]
        mirrored = [(j.sequence, j.next_attempt, j.attempts_made)
                    for j in restored.due(cutoff)]
        assert original == mirrored


class TestSigkillHeal:
    """The real thing, not the in-process stand-in: SIGKILL a study
    subprocess mid-window, then resume and match the uninterrupted
    digest (the study twin of test_scan_resilience's worker kills)."""

    CHILD_SCRIPT = """
import sys
from repro.experiment import ExperimentConfig, StudyRunner
config = ExperimentConfig(seed=41, spam_scale=1e-5, ham_scale=0.5,
                          outage_spans=())
StudyRunner(config).run(checkpoint_path=sys.argv[1],
                        checkpoint_interval=20)
"""

    @pytest.mark.chaos
    def test_sigkill_mid_window_then_resume_is_identical(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        path = tmp_path / "study.ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src", env.get("PYTHONPATH", "")])
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD_SCRIPT, str(path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not path.exists() and time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            assert path.exists(), "child never wrote a checkpoint"
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            returncode = child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        assert returncode == -signal.SIGKILL, \
            "child finished before the kill; lower the interval"

        config = ExperimentConfig(**CHEAP)
        killed_at = StudyCheckpoint(path).load(
            config_identity(config))["next_day"]
        assert killed_at < 225, "checkpoint already covered the window"

        healed = StudyRunner(config).run(checkpoint_path=path, resume=True,
                                         checkpoint_interval=100)
        baseline = StudyRunner(ExperimentConfig(**CHEAP)).run()
        assert (record_stream_digest(healed.records)
                == record_stream_digest(baseline.records))
        assert healed.robustness["durability"]["resumed_from_day"] \
            == killed_at


class TestRngStateTree:
    def test_capture_restore_resumes_every_stream(self):
        rng = SeededRng(11, name="root")
        a = rng.child("a")
        b = rng.child("b")
        grandchild = a.child("deep")
        [rng.random() for _ in range(5)]
        [grandchild.random() for _ in range(3)]
        tree = rng.capture_state_tree()
        expected = (rng.random(), a.random(), b.random(),
                    grandchild.random())

        fresh = SeededRng(11, name="root")
        fa = fresh.child("a")
        fb = fresh.child("b")
        fdeep = fa.child("deep")
        # burn the fresh streams to prove restore rewinds them
        [fresh.random() for _ in range(9)]
        [fb.random() for _ in range(4)]
        fresh.restore_state_tree(json.loads(json.dumps(tree)))
        assert (fresh.random(), fa.random(), fb.random(),
                fdeep.random()) == expected

    def test_restore_rejects_wrong_shape(self):
        rng = SeededRng(11, name="root")
        rng.child("a")
        tree = rng.capture_state_tree()
        other = SeededRng(11, name="root")
        with pytest.raises(ValueError):
            other.restore_state_tree(tree)   # child count differs
        other.child("b")
        with pytest.raises(ValueError):
            other.restore_state_tree(tree)   # child name differs
