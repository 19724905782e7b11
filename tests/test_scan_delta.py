"""Incremental (delta) re-scans and the churned world model.

Pins the contract the delta re-scan is built on: churn is a pure
function of ``(seed, day)``, unchurned ranks stay byte-identical to the
pristine world, and a scan checkpoint re-run at a later churn day merges
to exactly the digest of a from-scratch full scan of the evolved world.
The checkpoint's persistence contract lives with the other artifacts in
``tests/test_util_artifact.py`` and ``tests/test_scan_resilience.py``.
"""

import shutil

import pytest

from repro.core import EMAIL_TARGETS
from repro.core.typogen import enumerate_edit_ops
from repro.ecosystem import (
    ChurnSchedule,
    ScanAggregates,
    WorldModel,
    world_range_digest,
)
from repro.ecosystem.world import _generated_count
from repro.experiment import ScanCheckpoint, run_resilient_scan, run_sharded_scan
from repro.util.errors import CheckpointMismatchError

SEED = 606
MAX_RANK = 600
RATE = 0.004


def _churn(days):
    return ChurnSchedule(SEED, MAX_RANK, RATE).generations(days)


class TestChurnSchedule:
    def test_day_events_deterministic(self):
        schedule = ChurnSchedule(SEED, MAX_RANK, RATE)
        assert schedule.day_events(1) == schedule.day_events(1)
        assert schedule.day_events(1) != schedule.day_events(2)

    def test_generations_accumulate_across_days(self):
        """The day-N map is the sum of day 1..N event sets."""
        schedule = ChurnSchedule(SEED, MAX_RANK, RATE)
        by_hand = {}
        for day in (1, 2, 3):
            for rank in schedule.day_events(day):
                by_hand[rank] = by_hand.get(rank, 0) + 1
        assert schedule.generations(3) == by_hand

    def test_zero_days_or_rate_is_pristine(self):
        assert ChurnSchedule(SEED, MAX_RANK, RATE).generations(0) == {}
        assert ChurnSchedule(SEED, MAX_RANK, 0.0).generations(50) == {}

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            ChurnSchedule(SEED, 0, RATE)
        with pytest.raises(ValueError):
            ChurnSchedule(SEED, MAX_RANK, 1.5)
        with pytest.raises(ValueError):
            ChurnSchedule(SEED, MAX_RANK, RATE).day_events(0)
        with pytest.raises(ValueError):
            ChurnSchedule(SEED, MAX_RANK, RATE).generations(-1)

    def test_unchurned_ranks_are_byte_identical(self):
        """Generation-0 ranks scan identically in churned and pristine
        worlds — the property range reuse rests on."""
        churn = _churn(3)
        assert churn, "expected some churn at this rate"
        pristine = WorldModel(SEED)
        evolved = WorldModel(SEED, churn=churn)
        changed = identical = 0
        for rank in range(1, 101):
            a = pristine.scan_ranks(rank, rank + 1, max_rank=MAX_RANK)
            b = evolved.scan_ranks(rank, rank + 1, max_rank=MAX_RANK)
            if rank in churn:
                changed += 1
            else:
                identical += 1
                assert a.digest() == b.digest(), f"rank {rank} drifted"
        assert identical > 0

    def test_churned_rank_rerolls_its_grid(self):
        """At least one churned rank in the head changes its scan."""
        churn = {rank: 1 for rank in range(1, 51)}
        pristine = WorldModel(SEED)
        evolved = WorldModel(SEED, churn=churn)
        a = pristine.scan_ranks(1, 51, max_rank=MAX_RANK)
        b = evolved.scan_ranks(1, 51, max_rank=MAX_RANK)
        assert a.digest() != b.digest()


class TestWorldRangeDigest:
    def test_covers_only_events_inside_the_range(self):
        base = world_range_digest(SEED, 1, 100, {})
        assert world_range_digest(SEED, 1, 100, {500: 2}) == base
        assert world_range_digest(SEED, 1, 100, {50: 1}) != base

    def test_sensitive_to_generation_and_bounds(self):
        assert (world_range_digest(SEED, 1, 100, {50: 1})
                != world_range_digest(SEED, 1, 100, {50: 2}))
        assert (world_range_digest(SEED, 1, 100, {})
                != world_range_digest(SEED, 1, 101, {}))


def _rescan(path, days=0, **kwargs):
    """A scan of the day-``days`` world on the checkpoint at ``path``: a
    delta re-scan when ``path`` already holds an earlier day's ranges."""
    return run_resilient_scan(SEED, MAX_RANK, range_width=50,
                              churn=tuple(sorted(_churn(days).items())),
                              checkpoint_path=path, **kwargs)


def _reused(run):
    return sum(1 for outcome in run.outcomes if outcome.status == "resumed")


class TestDeltaScan:
    """A delta re-scan is a checkpointed scan re-run at a later day."""

    def test_baseline_total_equals_full_scan(self, tmp_path):
        """The day-0 checkpoint's stored ranges merge to the full scan."""
        path = tmp_path / "scan.ckpt"
        _rescan(path)
        stored = ScanAggregates()
        for _, record in sorted(ScanCheckpoint(path, SEED,
                                               MAX_RANK).records.items()):
            stored.merge(record.aggregates)
        assert stored.digest() == run_sharded_scan(SEED, MAX_RANK).digest()

    def test_delta_equals_full_scan_of_evolved_world(self, tmp_path):
        """The headline property: the day-0 checkpoint re-run at day N
        is byte-identical to a from-scratch scan of the day-N world."""
        path = tmp_path / "scan.ckpt"
        _rescan(path)
        delta = _rescan(path, 3)
        full = run_sharded_scan(SEED, MAX_RANK,
                                churn=tuple(sorted(_churn(3).items())))
        assert delta.aggregates.digest() == full.digest()
        assert 0 < _reused(delta) < len(delta.outcomes), (
            "at this rate some ranges must be clean and some churned — "
            "the delta otherwise degenerates to a full scan or a no-op")

    def test_delta_chains_across_days(self, tmp_path):
        """Evolving day 0 -> 2 -> 5 equals evolving 0 -> 5 directly, in
        the digest and in every stored range."""
        def chain(path, days):
            run = [_rescan(path, day) for day in days][-1]
            return run.aggregates.digest(), {
                key: record.canonical_dict() for key, record in
                ScanCheckpoint(path, SEED, MAX_RANK).records.items()}

        assert (chain(tmp_path / "stepped.ckpt", (0, 2, 5))
                == chain(tmp_path / "direct.ckpt", (0, 5)))

    def test_no_churn_reuses_everything(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        first = _rescan(path)
        again = _rescan(path)
        assert _reused(again) == len(again.outcomes)
        assert again.aggregates.digest() == first.aggregates.digest()

    def test_config_mismatch_is_loud(self, tmp_path):
        from repro.ecosystem import InternetConfig

        path = tmp_path / "scan.ckpt"
        _rescan(path)
        with pytest.raises(CheckpointMismatchError, match="config_digest"):
            _rescan(path, 1, config=InternetConfig(num_filler_targets=7))

    def test_parallel_delta_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial.ckpt", tmp_path / "pool.ckpt"
        _rescan(serial)
        shutil.copyfile(serial, parallel)
        assert (_rescan(serial, 3).aggregates.digest()
                == _rescan(parallel, 3, jobs=2).aggregates.digest())


class TestFastPathsMatchReference:
    def test_is_target_domain_matches_target_names(self):
        """The O(1) membership law agrees with the materialized set."""
        world = WorldModel(SEED)
        names = world.target_names(500)
        for name in list(names)[:300]:
            assert world.is_target_domain(name, 500)
        # names beyond the horizon, non-.com, malformed indexes
        assert not world.is_target_domain(world.target_domain(501), 500)
        assert not world.is_target_domain("nope.example", 500)
        assert not world.is_target_domain("ab1.com", 500)
        for rank in (1, 21, 22, 100, 499, 500):
            assert world.is_target_domain(world.target_domain(rank), 500)

    def test_is_target_domain_rejects_leading_zero_aliases(self):
        """bavu007.com must not alias bavu7.com — the index must
        round-trip through the canonical decimal spelling."""
        world = WorldModel(SEED)
        name = world.target_domain(100)
        label = name[:-4]
        stem = label.rstrip("0123456789")
        digits = label[len(stem):]
        if digits:
            padded = f"{stem}0{digits}.com"
            assert not world.is_target_domain(padded, 10_000)

    def test_filler_chunk_counts_match_generated_count(self):
        """The walk's gtypo tally over filler names (the closed form)
        equals the enumerator's count, name by name."""
        world = WorldModel(SEED)
        first = len(EMAIL_TARGETS) + 1
        names = world._chunk(0)[:64]
        for name in names:
            assert _generated_count(name[:-4]) == len(
                enumerate_edit_ops(name[:-4]))
        tally = [0]
        for _ in world._walk(first, first + len(names), 10**6, tally):
            pass
        assert tally[0] == sum(len(enumerate_edit_ops(name[:-4]))
                               for name in names)
