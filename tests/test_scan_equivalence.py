"""One aggregate digest across every way of scanning the same world.

The scan family's equivalence contract, stated once: the one-call
``WorldModel.scan_ranks``, the sharded scan at any jobs count and range
width, the resilient scan with no plan, with the empty plan and with
crashes the retries absorb, a degraded checkpointed run and its resume
at another jobs count, a checkpoint's stored ranges, and a delta chain
(one checkpoint re-run across churn days) all give the same digest as
the one-call scan of the same world.  The featurize sweep is held to the same bar for its
row-stream digest, over a universe of three default-width ranges.
"""

import pytest

from repro.ecosystem import ChurnSchedule, ScanAggregates, WorldModel
from repro.experiment import (
    ScanCheckpoint,
    ShardRetryPolicy,
    run_ranges,
    run_resilient_scan,
    run_sharded_scan,
)
from repro.faultsim import FaultPlan, ShardCrashSpec
from repro.features import featurize_domains, run_sharded_featurize
from repro.features.domains import DomainSweep, featurize_range

pytestmark = pytest.mark.chaos

SEED, MAX_RANK, DAY, WIDTH = 31, 700, 5, 100
FEATURIZE_RANKS = 2_500

#: the one-call scan of ranks 1..700 at seed 31, pristine and at churn
#: day 5, and the featurize row stream of ranks 1..2500
DIGEST = "b6336ed23deb1890332d7ae4684e83cf779e4585110da358a2d85ece305d1b0d"
DIGEST_DAY5 = (
    "90b84f3b0a9d98712bfe322660d65bb1994b8c5e84df2fb76f674491c3db9f10")
FEATURIZE_DIGEST = (
    "81502b3fb0a4605ea5f3f23271549e2444c7d4fc6706df66fa7f11cfef01f60e")


def _crash_plan(failures):
    return FaultPlan(seed=3, shard_crashes=(
        ShardCrashSpec(rank=5, failures=failures, mode="crash"),
        ShardCrashSpec(rank=650, failures=failures, mode="crash")))


def _resilient(**kwargs):
    result = run_resilient_scan(SEED, MAX_RANK, range_width=WIDTH, **kwargs)
    assert not result.degraded
    return result.aggregates.digest()


def _degraded_then_resumed(tmp_path):
    """Two of seven ranges lost at jobs 2; the resume at jobs 1 scans
    only those two."""
    path = tmp_path / "scan.ckpt"
    degraded = run_resilient_scan(
        SEED, MAX_RANK, jobs=2, range_width=WIDTH,
        fault_plan=_crash_plan(99), retry=ShardRetryPolicy(max_attempts=1),
        checkpoint_path=path)
    assert degraded.unscanned_ranges == ((1, 101), (601, 701))
    assert degraded.aggregates.digest() != DIGEST
    resumed = run_resilient_scan(SEED, MAX_RANK, jobs=1, range_width=WIDTH,
                                 checkpoint_path=path)
    assert resumed.attempts_total == 2
    return resumed.aggregates.digest()


def _churned(day):
    return tuple(sorted(ChurnSchedule(SEED, MAX_RANK).generations(
        day).items()))


def _stored_total(tmp_path, day=0):
    """The merged stored ranges of a checkpoint of the day-``day`` world
    (the baseline a later day's re-run reuses)."""
    path = tmp_path / "scan.ckpt"
    run_resilient_scan(SEED, MAX_RANK, range_width=WIDTH,
                       churn=_churned(day), checkpoint_path=path)
    total = ScanAggregates()
    for _, record in sorted(ScanCheckpoint(path, SEED,
                                           MAX_RANK).records.items()):
        total.merge(record.aggregates)
    return total.digest()


def _delta_chain(tmp_path, jobs):
    """One checkpoint file re-run at churn days 0, 2 and 5."""
    path = tmp_path / "scan.ckpt"
    for day in (0, 2, DAY):
        stepped = run_resilient_scan(SEED, MAX_RANK, jobs=jobs,
                                     range_width=50, churn=_churned(day),
                                     checkpoint_path=path)
    # some ranges are reused, some rescanned: both halves of the rule run
    reused = sum(1 for o in stepped.outcomes if o.status == "resumed")
    assert 0 < reused < len(stepped.outcomes)
    return stepped.aggregates.digest()


SCAN_RUNS = {
    "one_call": lambda tmp: WorldModel(SEED).scan_ranks(
        1, MAX_RANK + 1, max_rank=MAX_RANK).digest(),
    "sharded_jobs1": lambda tmp: run_sharded_scan(
        SEED, MAX_RANK, jobs=1).digest(),
    "sharded_jobs2": lambda tmp: run_sharded_scan(
        SEED, MAX_RANK, jobs=2).digest(),
    "sharded_jobs1_width100": lambda tmp: run_sharded_scan(
        SEED, MAX_RANK, jobs=1, range_width=WIDTH).digest(),
    "sharded_jobs2_width100": lambda tmp: run_sharded_scan(
        SEED, MAX_RANK, jobs=2, range_width=WIDTH).digest(),
    "sharded_jobs2_width256": lambda tmp: run_sharded_scan(
        SEED, MAX_RANK, jobs=2, range_width=256).digest(),
    "resilient_no_plan": lambda tmp: _resilient(jobs=1),
    "resilient_empty_plan": lambda tmp: _resilient(
        jobs=1, fault_plan=FaultPlan.empty()),
    "resilient_crash_retried_jobs1": lambda tmp: _resilient(
        jobs=1, fault_plan=_crash_plan(2)),
    "resilient_crash_retried_jobs2": lambda tmp: _resilient(
        jobs=2, fault_plan=_crash_plan(1)),
    "degraded_then_resumed": _degraded_then_resumed,
    "baseline_total": _stored_total,
}

DAY5_RUNS = {
    "one_call": lambda tmp: WorldModel(
        SEED, churn=dict(_churned(DAY))).scan_ranks(
        1, MAX_RANK + 1, max_rank=MAX_RANK).digest(),
    "sharded_jobs2": lambda tmp: run_sharded_scan(
        SEED, MAX_RANK, jobs=2, range_width=WIDTH,
        churn=_churned(DAY)).digest(),
    "resilient_jobs1": lambda tmp: _resilient(jobs=1, churn=_churned(DAY)),
    "delta_chain_0_2_5": lambda tmp: _delta_chain(tmp, 1),
    "delta_chain_0_2_5_jobs2": lambda tmp: _delta_chain(tmp, 2),
    "baseline_at_day5": lambda tmp: _stored_total(tmp, DAY),
}

def _featurize_through_a_crash(jobs):
    """The first range is retried after the other two land; the runner
    still hands the blocks over in rank order."""
    sweep = DomainSweep(1, FEATURIZE_RANKS + 1, FEATURIZE_RANKS)
    run = run_ranges(
        SEED, FEATURIZE_RANKS, featurize_range,
        lambda start, stop, digest, part: sweep.blocks.extend(part.blocks),
        jobs=jobs, fault_plan=FaultPlan(seed=3, shard_crashes=(
            ShardCrashSpec(rank=5, failures=1, mode="crash"),)))
    assert run.attempts_total == 4
    return sweep.digest()


FEATURIZE_RUNS = {
    "one_call": lambda: featurize_domains(
        SEED, 1, FEATURIZE_RANKS + 1, max_rank=FEATURIZE_RANKS).digest(),
    "jobs1": lambda: run_sharded_featurize(
        SEED, FEATURIZE_RANKS, jobs=1).digest(),
    "jobs2": lambda: run_sharded_featurize(
        SEED, FEATURIZE_RANKS, jobs=2).digest(),
    "crash_retried_jobs1": lambda: _featurize_through_a_crash(1),
    "crash_retried_jobs2": lambda: _featurize_through_a_crash(2),
}


@pytest.mark.parametrize("run", sorted(SCAN_RUNS))
def test_scan_run_gives_the_one_digest(run, tmp_path):
    assert SCAN_RUNS[run](tmp_path) == DIGEST


@pytest.mark.parametrize("run", sorted(DAY5_RUNS))
def test_churned_scan_run_gives_the_day5_digest(run, tmp_path):
    assert DAY5_RUNS[run](tmp_path) == DIGEST_DAY5


@pytest.mark.parametrize("run", sorted(FEATURIZE_RUNS))
def test_featurize_run_gives_the_one_digest(run):
    assert FEATURIZE_RUNS[run]() == FEATURIZE_DIGEST


def test_churn_moves_the_digest():
    """The two scan digests differ, so the day-5 runs test something."""
    assert DIGEST != DIGEST_DAY5
