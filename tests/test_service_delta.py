"""Churn deltas against the resident index: incremental == fresh.

Target identities never churn — only the per-rank registration streams
re-key — so :meth:`TypoRiskIndex.apply_delta` must update the evolved
world, ending byte-identical to an index built fresh over the evolved
world and answering registration like it.  The engine layer must
notice the epoch bump and refuse to serve stale verdicts.
"""

import pytest

from repro.core.distances import classify_edit
from repro.core.typogen import apply_edit, enumerate_edit_ops
from repro.ecosystem.delta import ChurnSchedule
from repro.service import LookupWorkload, RiskEngine, TypoRiskIndex
from repro.util.errors import ConfigError

SEED = 606
MAX_RANK = 400
DAY = 30

# a rate high enough that 30 days churn a meaningful slice of 400 ranks
SCHEDULE = ChurnSchedule(seed=SEED, max_rank=MAX_RANK, daily_rate=0.02)


def _registered(index, rank):
    """The one-edit typos of the rank's target that ``index`` answers
    as registered."""
    label, _ = index.world.target_parts(rank)
    return {typo for typo in (apply_edit(label, *op)
                              for op in enumerate_edit_ops(label))
            if index.is_registered_typo(typo, rank,
                                         classify_edit(label, typo))}


@pytest.fixture()
def evolved_pair():
    """(incrementally evolved index, fresh index over the same world)."""
    index = TypoRiskIndex(SEED, MAX_RANK)
    changed = index.apply_delta(SCHEDULE, DAY)
    fresh = TypoRiskIndex(SEED, MAX_RANK,
                          churn=SCHEDULE.generations(DAY), day=DAY)
    return index, fresh, changed


class TestDeltaParity:
    def test_some_ranks_actually_churned(self, evolved_pair):
        _, _, changed = evolved_pair
        assert changed > 0

    def test_canonical_payload_matches_fresh(self, evolved_pair):
        index, fresh, _ = evolved_pair
        assert index.canonical_dict() == fresh.canonical_dict()

    def test_registered_labels_match_fresh(self, evolved_pair):
        index, fresh, _ = evolved_pair
        churned = set(SCHEDULE.generations(DAY))
        sample = sorted(churned)[:8] + [rank for rank in (1, 2, 3, 25, 40)
                                        if rank not in churned]
        for rank in sample:
            assert _registered(index, rank) == _registered(fresh, rank), rank

    def test_only_churned_caches_are_dropped(self, evolved_pair):
        """The index keeps no per-rank registration cache, so a delta
        must still leave nothing stale behind: an index that answered
        for some ranks before the delta answers, after it, like a fresh
        index — unchurned ranks exactly as before, and some churned
        ranks differently."""
        _, fresh, _ = evolved_pair
        index = TypoRiskIndex(SEED, MAX_RANK)
        churned = set(SCHEDULE.generations(DAY))
        kept = [rank for rank in range(1, MAX_RANK + 1)
                if rank not in churned][:4]
        dropped = sorted(churned)[:4]
        before = {rank: _registered(index, rank) for rank in kept + dropped}
        index.apply_delta(SCHEDULE, DAY)
        for rank in kept:
            assert _registered(index, rank) == before[rank], rank
        moved = 0
        for rank in dropped:
            after = _registered(index, rank)
            assert after == _registered(fresh, rank), rank
            moved += after != before[rank]
        assert moved > 0

    def test_verdicts_match_fresh(self, evolved_pair):
        index, fresh, _ = evolved_pair
        workload = LookupWorkload(SEED, MAX_RANK, pool_size=96,
                                  world=index.world)
        evolved_engine = RiskEngine(index)
        fresh_engine = RiskEngine(fresh)
        for query in workload.pool_entries():
            assert evolved_engine.lookup(query).canonical_json() == \
                fresh_engine.lookup(query).canonical_json()

    def test_delta_is_idempotent(self, evolved_pair):
        index, _, _ = evolved_pair
        epoch = index.epoch
        assert index.apply_delta(SCHEDULE, DAY) == 0
        # an empty delta is a no-op: the epoch holds, so resident
        # engines keep their warm memos (every verdict is still valid)
        assert index.epoch == epoch

    def test_empty_delta_keeps_engine_memo(self):
        engine = RiskEngine(TypoRiskIndex(
            SEED, MAX_RANK, churn=SCHEDULE.generations(DAY), day=DAY))
        engine.lookup("gmial.com")
        warm = engine.cache_stats()
        assert warm["size"] == 1
        assert engine.apply_delta(SCHEDULE, DAY) == 0
        assert engine.cache_stats() == warm
        # and the memoized verdict is served, not recomputed
        engine.lookup("gmial.com")
        assert engine.cache_stats()["hits"] == warm["hits"] + 1

    def test_rewind_to_day_zero(self, evolved_pair):
        index, _, _ = evolved_pair
        index.apply_delta(SCHEDULE, 0)
        pristine = TypoRiskIndex(SEED, MAX_RANK)
        assert index.canonical_dict() == pristine.canonical_dict()


class TestEngineEpoch:
    def test_epoch_bump_clears_the_memo(self):
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        engine.lookup("gmial.com")
        assert engine.cache_stats()["size"] == 1
        engine.apply_delta(SCHEDULE, DAY)
        assert engine.cache_stats()["size"] == 0
        # verdicts after the delta match a fresh engine over the
        # evolved world
        fresh = RiskEngine(TypoRiskIndex(
            SEED, MAX_RANK, churn=SCHEDULE.generations(DAY), day=DAY))
        assert engine.lookup("gmial.com").canonical_json() == \
            fresh.lookup("gmial.com").canonical_json()

    def test_external_delta_is_noticed_on_lookup(self):
        """Index evolved behind the engine's back: the epoch guard."""
        index = TypoRiskIndex(SEED, MAX_RANK)
        engine = RiskEngine(index)
        engine.lookup("gmial.com")
        index.apply_delta(SCHEDULE, DAY)
        engine.lookup("gmial.com")
        assert engine.cache_stats()["size"] == 1  # memo was rebuilt


class TestScheduleValidation:
    def test_seed_mismatch_is_refused(self):
        index = TypoRiskIndex(SEED, MAX_RANK)
        with pytest.raises(ConfigError):
            index.apply_delta(ChurnSchedule(seed=SEED + 1,
                                            max_rank=MAX_RANK), DAY)

    def test_narrow_schedule_is_refused(self):
        index = TypoRiskIndex(SEED, MAX_RANK)
        with pytest.raises(ConfigError):
            index.apply_delta(ChurnSchedule(seed=SEED,
                                            max_rank=MAX_RANK - 1), DAY)
