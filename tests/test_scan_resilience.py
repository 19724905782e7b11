"""Self-healing range scans: crash requeue, checkpoints, degraded reports.

The digest bar from the sharding tests carries over: a resilient scan
that recovers every range must be byte-identical to the plain serial
scan, for any jobs count and any injected crash schedule the retry
budget can absorb.  The 24-rank universe is cut into four 6-rank
ranges (``_resilient``), so a crash hits one range and pools get real
work.
"""

import json
import warnings

import pytest

from repro.doctor import diagnose_file
from repro.ecosystem import (
    ChurnSchedule,
    InternetConfig,
    RangeRecord,
    ScanAggregates,
    world_range_digest,
)
from repro.ecosystem.delta import _config_digest
from repro.experiment import (
    ScanCheckpoint,
    ShardRetryPolicy,
    parallel_map,
    pool_fallback_count,
    run_resilient_scan,
    run_sharded_scan,
)
from repro.faultsim import FaultPlan, InjectedWorkerCrash, ShardCrashSpec
from repro.util.artifact import save_artifact, write_segment
from repro.util.errors import EXIT_CORRUPT_CHECKPOINT, CheckpointMismatchError
from repro.util.perf import PerfRegistry

pytestmark = pytest.mark.chaos

SEED, MAX_RANK, WIDTH = 9, 24, 6


@pytest.fixture(scope="module")
def baseline_digest():
    return run_sharded_scan(SEED, MAX_RANK, jobs=1).digest()


def _resilient(**kwargs):
    return run_resilient_scan(SEED, MAX_RANK, range_width=WIDTH, **kwargs)


def _crash_plan(rank=3, failures=1, seed=5):
    return FaultPlan(seed=seed, shard_crashes=(
        ShardCrashSpec(rank=rank, failures=failures, mode="crash"),))


class TestFaultFreeEquivalence:
    def test_resilient_scan_matches_plain_scan(self, baseline_digest):
        result = _resilient(jobs=1)
        assert result.aggregates.digest() == baseline_digest
        assert not result.degraded and result.unscanned_ranges == ()
        assert all(o.status == "completed" for o in result.outcomes)

    def test_empty_plan_matches_too(self, baseline_digest):
        result = _resilient(jobs=1,
                            fault_plan=FaultPlan.empty())
        assert result.aggregates.digest() == baseline_digest


class TestCrashRecovery:
    def test_serial_crash_is_requeued_and_recovered(self, baseline_digest):
        result = _resilient(jobs=1,
                            fault_plan=_crash_plan())
        assert result.aggregates.digest() == baseline_digest
        assert not result.degraded
        # one shard needed a second attempt
        assert result.attempts_total == 2 + (len(result.outcomes) - 1)

    @pytest.mark.slow
    def test_parallel_crash_is_requeued_and_recovered(self, baseline_digest):
        result = _resilient(jobs=4,
                            fault_plan=_crash_plan())
        assert result.aggregates.digest() == baseline_digest
        assert not result.degraded
        crashed = [o for o in result.outcomes if o.attempts == 2]
        assert len(crashed) == 1
        assert 1 <= crashed[0].start_rank <= 3 < crashed[0].stop_rank

    def test_digest_is_jobs_invariant_under_faults(self, baseline_digest):
        plan = _crash_plan(failures=2)
        serial = _resilient(jobs=1, fault_plan=plan)
        sharded = _resilient(jobs=3, fault_plan=plan)
        assert (serial.aggregates.digest() == sharded.aggregates.digest()
                == baseline_digest)

    def test_perf_counts_shard_retries(self):
        perf = PerfRegistry()
        _resilient(jobs=1, fault_plan=_crash_plan(),
                   perf=perf)
        assert perf.counters["scan.shard_retries"] == 1

    def test_injected_crash_surfaces_without_a_driver(self):
        """Outside the resilient driver the injection is a plain raise."""
        from repro.experiment.parallel import RangeTask, run_range, scan_range

        task = RangeTask(seed=SEED, start_rank=1, stop_rank=9,
                         max_rank=MAX_RANK, consume=scan_range,
                         fault_plan=_crash_plan(), attempt=1)
        with pytest.raises(InjectedWorkerCrash):
            run_range(task)


class TestDegradedReport:
    def test_exhausted_retries_name_the_exact_ranges(self):
        plan = _crash_plan(failures=99)
        result = _resilient(jobs=4, fault_plan=plan,
                            retry=ShardRetryPolicy(max_attempts=2))
        assert result.degraded
        assert len(result.unscanned_ranges) == 1
        start, stop = result.unscanned_ranges[0]
        assert start <= 3 < stop
        [failed] = [o for o in result.outcomes if o.status == "failed"]
        assert failed.attempts == 2
        assert "InjectedWorkerCrash" in failed.error
        assert any("DEGRADED" in line for line in result.summary_lines())

    def test_surviving_shards_still_merge(self, baseline_digest):
        plan = _crash_plan(failures=99)
        result = _resilient(jobs=4, fault_plan=plan,
                            retry=ShardRetryPolicy(max_attempts=1))
        assert result.degraded
        assert 0 < result.aggregates.registered_count
        assert result.aggregates.digest() != baseline_digest
        assert result.plan_digest == plan.digest()


@pytest.mark.slow
class TestHangTimeout:
    def test_hung_shard_trips_the_timeout_and_retries(self, baseline_digest):
        plan = FaultPlan(seed=5, shard_crashes=(
            ShardCrashSpec(rank=3, failures=1, mode="hang",
                           hang_seconds=1.5),))
        result = _resilient(
            jobs=2, fault_plan=plan,
            retry=ShardRetryPolicy(max_attempts=2,
                                   shard_timeout_seconds=0.3))
        assert result.aggregates.digest() == baseline_digest
        assert not result.degraded
        assert any(o.attempts == 2 for o in result.outcomes)


class TestCheckpointResume:
    def test_fresh_run_writes_and_resume_skips(self, tmp_path,
                                               baseline_digest):
        path = tmp_path / "scan.json"
        first = _resilient(jobs=2,
                           checkpoint_path=path)
        assert first.aggregates.digest() == baseline_digest
        assert path.exists()
        second = _resilient(jobs=2,
                            checkpoint_path=path)
        assert second.aggregates.digest() == baseline_digest
        assert all(o.status == "resumed" for o in second.outcomes)
        assert second.attempts_total == 0

    def test_degraded_run_resumes_into_a_complete_one(self, tmp_path,
                                                      baseline_digest):
        """The kill-resilience bar: crash a shard to death, re-run with
        the same checkpoint, and the scan completes to the fault-free
        digest."""
        path = tmp_path / "scan.json"
        degraded = _resilient(
            jobs=4, fault_plan=_crash_plan(failures=99),
            retry=ShardRetryPolicy(max_attempts=1), checkpoint_path=path)
        assert degraded.degraded
        healed = _resilient(jobs=4,
                            checkpoint_path=path)
        assert healed.aggregates.digest() == baseline_digest
        assert not healed.degraded
        statuses = {o.status for o in healed.outcomes}
        assert statuses == {"resumed", "completed"}

    def test_checkpoint_rejects_mismatched_run(self, tmp_path):
        path = tmp_path / "scan.json"
        _resilient(jobs=1, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError, match="was written for"):
            ScanCheckpoint(path, seed=SEED + 1, max_rank=MAX_RANK)
        with pytest.raises(CheckpointMismatchError, match="was written for"):
            ScanCheckpoint(path, seed=SEED, max_rank=MAX_RANK + 1)

    def test_resume_at_another_jobs_count_reuses_every_range(self,
                                                              tmp_path):
        """Ranges have a fixed width, so a checkpoint written at jobs 2
        resumes whole at jobs 1 and the file never holds overlaps."""
        path = tmp_path / "scan.ckpt"
        first = run_resilient_scan(5, 3000, jobs=2, checkpoint_path=path)
        second = run_resilient_scan(5, 3000, jobs=1, checkpoint_path=path)
        assert [o.status for o in second.outcomes] == ["resumed"] * 3
        assert second.attempts_total == 0
        assert second.aggregates.digest() == first.aggregates.digest()
        keys = sorted(ScanCheckpoint(path, seed=5, max_rank=3000).records)
        assert keys == [(1, 1025), (1025, 2049), (2049, 3001)]

    def test_checkpoint_of_another_churn_day_is_not_reused(self, tmp_path):
        """A stored range is reused only for the world it was scanned in:
        ranges whose churn moved between days 3 and 5 are rescanned."""
        schedule = ChurnSchedule(SEED, MAX_RANK, daily_rate=0.05)
        day3, day5 = (tuple(sorted(schedule.generations(day).items()))
                      for day in (3, 5))
        path = tmp_path / "scan.ckpt"
        _resilient(jobs=1, churn=day3, checkpoint_path=path)
        resumed = _resilient(jobs=1, churn=day5, checkpoint_path=path)
        assert [o.status for o in resumed.outcomes] == [
            "resumed", "completed", "completed", "completed"]
        assert resumed.aggregates.digest() == run_sharded_scan(
            SEED, MAX_RANK, churn=day5).digest()
        assert resumed.aggregates.digest() != _resilient(
            churn=day3).aggregates.digest()

    def test_checkpoint_appends_each_range_and_drops_a_torn_tail(
            self, tmp_path, baseline_digest):
        """One journal line per completed range; a kill mid-append costs
        only that range on resume."""
        path = tmp_path / "scan.ckpt"
        _resilient(jobs=1, checkpoint_path=path)
        assert len(path.read_bytes().split(b"\n")[:-1]) == 4
        path.write_bytes(path.read_bytes()[:-20])
        assert ScanCheckpoint(path, seed=SEED, max_rank=MAX_RANK).torn_tail
        assert diagnose_file(path).ok
        healed = _resilient(jobs=1, checkpoint_path=path)
        assert [o.status for o in healed.outcomes] == [
            "resumed", "resumed", "resumed", "completed"]
        assert healed.aggregates.digest() == baseline_digest
        assert not ScanCheckpoint(path, seed=SEED,
                                  max_rank=MAX_RANK).torn_tail

    def test_interrupted_run_keeps_every_range_it_finished(
            self, tmp_path, monkeypatch, baseline_digest):
        """Each range is recorded as it lands, so a run stopped by Ctrl-C
        mid-pass resumes with only the unfinished ranges to scan."""
        from repro.experiment import parallel

        scan = parallel.scan_range

        def interrupt_third_range(world, task, perf):
            if task.start_rank == 13:
                raise KeyboardInterrupt
            return scan(world, task, perf)

        path = tmp_path / "scan.ckpt"
        monkeypatch.setattr(parallel, "scan_range", interrupt_third_range)
        with pytest.raises(KeyboardInterrupt):
            _resilient(jobs=1, checkpoint_path=path)
        monkeypatch.undo()
        healed = _resilient(jobs=1, checkpoint_path=path)
        assert [o.status for o in healed.outcomes] == [
            "resumed", "resumed", "completed", "completed"]
        assert healed.aggregates.digest() == baseline_digest

    def test_checkpoint_of_the_shard_layout_is_refused(self, tmp_path):
        """``@1`` files keyed ranges by jobs; they exit 3 with a remedy."""
        path = tmp_path / "scan.ckpt"
        save_artifact(path, {
            "format": "repro-scan-checkpoint@1", "seed": SEED,
            "max_rank": MAX_RANK,
            "shards": {"1-25": ScanAggregates().canonical_dict()}})
        with pytest.raises(CheckpointMismatchError,
                           match="delete it and rescan"):
            ScanCheckpoint(path, seed=SEED, max_rank=MAX_RANK)
        assert diagnose_file(path).exit_code == EXIT_CORRUPT_CHECKPOINT

    def test_checkpoint_of_another_exclude_set_is_refused(self, tmp_path):
        """A resume used to take the ranges of a scan that excluded
        mail.com: 5,331 registered ctypos, every range ``resumed``, where
        the plain scan gives 5,332."""
        path = tmp_path / "scan.ckpt"
        written = run_resilient_scan(7, 60, range_width=16,
                                     exclude=("mail.com",),
                                     checkpoint_path=path)
        assert written.aggregates.registered_count == 5331
        assert run_sharded_scan(7, 60).registered_count == 5332
        with pytest.raises(CheckpointMismatchError, match="exclude"):
            run_resilient_scan(7, 60, range_width=16, checkpoint_path=path)

    def test_checkpoint_of_another_world_config_is_refused(self, tmp_path):
        """A resume under another ``InternetConfig`` used to serve the
        default world's 5,332 registered ctypos, every range ``resumed``,
        where that config's plain scan gives 2,647."""
        config = InternetConfig(peak_registration_probability=0.3)
        path = tmp_path / "scan.ckpt"
        written = run_resilient_scan(7, 60, range_width=16,
                                     checkpoint_path=path)
        assert written.aggregates.registered_count == 5332
        assert run_sharded_scan(7, 60, config=config).registered_count \
            == 2647
        with pytest.raises(CheckpointMismatchError, match="config_digest"):
            run_resilient_scan(7, 60, range_width=16, config=config,
                               checkpoint_path=path)

    @pytest.mark.parametrize("layout", ["repro-scan-checkpoint@2",
                                        "repro-scan-baseline@2"])
    def test_retired_layouts_exit_three_with_the_remedy(self, tmp_path,
                                                        capsys, layout):
        """The ``@2`` journal (no world config or exclude set in its
        identity) and the delta baseline it stood beside are refused by
        the scan and by the doctor, never read."""
        from repro.cli import main

        path = tmp_path / "scan.ckpt"
        record = RangeRecord(1, MAX_RANK + 1,
                             world_range_digest(SEED, 1, MAX_RANK + 1, {}),
                             run_sharded_scan(SEED, MAX_RANK))
        fields = {"format": layout, "seed": SEED, "max_rank": MAX_RANK,
                  "ranges": [record.canonical_dict()]}
        if layout.startswith("repro-scan-checkpoint"):
            write_segment(path, dict(fields, prev=None))
        else:
            save_artifact(path, dict(
                fields, range_width=MAX_RANK, day=0, churn_rate=0.004,
                config_digest=_config_digest(None),
                total_digest=record.aggregates.digest()))
        for argv in (["--seed", str(SEED), "scan", "--ranks", str(MAX_RANK),
                      "--checkpoint", str(path)], ["doctor", str(path)]):
            assert main(argv) == EXIT_CORRUPT_CHECKPOINT
            captured = capsys.readouterr()
            assert "delete it and rescan" in captured.out + captured.err
            assert layout in captured.out + captured.err

    def test_canonical_round_trip_preserves_digest(self):
        aggregates = run_sharded_scan(SEED, MAX_RANK, jobs=1)
        clone = ScanAggregates.from_canonical_dict(
            json.loads(json.dumps(aggregates.canonical_dict())))
        assert clone.digest() == aggregates.digest()


class TestPoolFallbackVisibility:
    """The silent-degradation satellite: pool breakage must be loud."""

    def test_unpicklable_work_warns_and_counts(self):
        before = pool_fallback_count()
        perf = PerfRegistry()
        hostile = lambda x: x + 1      # closures cannot cross processes
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = parallel_map(hostile, [1, 2, 3], jobs=2, perf=perf)
        assert results == [2, 3, 4]
        assert pool_fallback_count() == before + 1
        assert perf.counters["parallel.pool_fallback"] == 1

    def test_sharded_scan_counts_a_pool_fallback(self, monkeypatch,
                                                 baseline_digest):
        """Every runner mode reports a pool that cannot start."""
        from repro.util import pool

        def no_pool(*args, **kwargs):
            raise OSError("no worker processes here")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
        perf = PerfRegistry()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            aggregates = run_sharded_scan(SEED, MAX_RANK, jobs=2,
                                          range_width=WIDTH, perf=perf)
        assert aggregates.digest() == baseline_digest
        assert perf.counters["parallel.pool_fallback"] == 1

    def test_serial_path_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(lambda x: x * 2, [1, 2], jobs=1) == [2, 4]
