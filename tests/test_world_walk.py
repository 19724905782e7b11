"""The one world walk behind the scan, the feature sweep and the states.

``WorldModel.scan_ranks``, ``WorldModel.featurize_ranks`` and
``WorldModel.iter_rank_states`` consume one registration draw, one
wild-state law and one membership oracle.  This suite pins them from
outside:

* literal digests of featurize windows (plain and churned), a deep scan
  window and every ``rank_states`` field, so a change to the shared law
  shows even where both sides of a parity test would move together;
* the target-collision exclusion, the one path the parity windows never
  reach, on a known colliding ctypo, with the addressed filler chunk
  cold and warm;
* ``target_rank`` against a materialized ``target_names`` universe on
  filler-shaped queries, cold and warm;
* the phase-timer keys the benchmark and ``repro scan`` read by name;
* the walk memo: any order of scans and sweeps over a world (the same
  window twice, interleaved windows, a ``max_rank`` miss, an evolved
  world, an interrupted walk) equals one call on a fresh world, and the
  memo stays small and off wide windows;
* the walk-word layout: disjoint fields inside an int64, the shared
  ones at their feature-word offsets;
* the wild-state law's unclamped picks stay in range at the largest
  stream uniform.
"""

from __future__ import annotations

import gc
import hashlib
import string
import tracemalloc
from bisect import bisect_right
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.targets import EMAIL_TARGETS
from repro.ecosystem.internet import InternetConfig
from repro.ecosystem.world import (
    _FILLER_CHUNK,
    _STEM_CACHE_CAP,
    _WALK_FIELDS,
    _WALK_MEMO_ROWS,
    FEATURE_PACK_SHIFTS,
    WorldModel,
    _word,
)
from repro.features import featurize_domains
from repro.util.perf import PerfRegistry

CHURN = ((5, 1), (40, 2), (250, 1))


def _states_digest(world: WorldModel, ranks) -> str:
    """SHA-256 over every field of every ``rank_states`` entry."""
    h = hashlib.sha256()
    for rank in ranks:
        for state in world.rank_states(rank):
            for f in fields(state):
                value = getattr(state, f.name)
                h.update(repr(getattr(value, "value", value)).encode())
                h.update(b"\x1f")
            h.update(b"\x1e")
    return h.hexdigest()


class TestPinnedDigests:
    def test_featurize_head_window(self):
        assert featurize_domains(909, 1, 301, max_rank=300).digest() == (
            "e891fc053b4914d1ace654b7e417f38d8148f2c702dce075ca2873d7babc294c")

    def test_featurize_head_window_churned(self):
        assert featurize_domains(909, 1, 301, max_rank=300,
                                 churn=CHURN).digest() == (
            "07d2bc4d6e48d8d5c1eaa381617710189975a7247836f3208c9039ed0821f859")

    def test_featurize_colliding_rank(self):
        assert featurize_domains(5, 1903, 1904,
                                 max_rank=10**6).digest() == (
            "d6559bf7cd16b7f2be1ca8f410a615bbb12a7a38405c63a232a0fd899e73e13d")

    def test_scan_deep_window(self):
        assert WorldModel(5).scan_ranks(1900, 1910,
                                        max_rank=10**6).digest() == (
            "0278dae5ea0a7ab7932af58f9ff5be007c227f6dfa8a54edebfd308bee71add9")

    def test_rank_states_every_field(self):
        assert _states_digest(WorldModel(555), range(1, 61)) == (
            "8853b73eae6b0e1c8dd2a04e18ff32bd017d663d65b60458ea0a40b320805ddd")

    def test_rank_states_every_field_churned(self):
        world = WorldModel(555, churn={3: 1, 30: 2})
        assert _states_digest(world, range(1, 61)) == (
            "eecb0bb5ffb6d8cac57c5be0dadd0739fc61932c92a5fc8fe9bc8a1d4c7860fb")


#: seed 5, rank 1903 (stetri1881.com) registers stetri18281.com, which is
#: itself the rank-18,303 target — inside filler chunk 17
COLLIDING_SEED = 5
COLLIDING_RANK = 1903
COLLIDING_DOMAIN = "stetri18281.com"
COLLIDING_TARGET_RANK = 18_303
COLLIDING_CHUNK = 17


class TestCollisionExclusion:
    def test_the_collision_is_real(self):
        world = WorldModel(COLLIDING_SEED)
        assert world.target_domain(COLLIDING_TARGET_RANK) == COLLIDING_DOMAIN
        assert COLLIDING_DOMAIN in {
            s.domain for s in world.rank_states(COLLIDING_RANK)}

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("max_rank,dropped", [
        (COLLIDING_TARGET_RANK - 1, False),
        (COLLIDING_TARGET_RANK, True),
        (10**6, True),
    ])
    def test_scan_and_featurize_drop_the_collision(self, max_rank, dropped,
                                                   warm):
        registered = len(WorldModel(COLLIDING_SEED).rank_states(
            COLLIDING_RANK))

        world = WorldModel(COLLIDING_SEED)
        if warm:
            world._chunk(COLLIDING_CHUNK)
        retained: list = []
        aggregates = world.scan_ranks(COLLIDING_RANK, COLLIDING_RANK + 1,
                                      max_rank=max_rank, retain=retained)
        scanned = {state.domain for state, _ in retained}
        assert (COLLIDING_DOMAIN not in scanned) == dropped
        assert aggregates.registered_count == registered - dropped

        sweep_world = WorldModel(COLLIDING_SEED)
        if warm:
            sweep_world._chunk(COLLIDING_CHUNK)
        sweep = featurize_domains(COLLIDING_SEED, COLLIDING_RANK,
                                  COLLIDING_RANK + 1, max_rank=max_rank,
                                  world=sweep_world)
        assert sweep.n_excluded == int(dropped)
        assert sweep.n_rows == registered - dropped

        if not warm:
            # the membership oracle compares stems; it never builds the
            # foreign chunk a digit-edited candidate addresses
            assert COLLIDING_CHUNK not in world._chunks
            assert COLLIDING_CHUNK not in sweep_world._chunks


MEMBER_SEED = 31
MEMBER_MAX_RANK = 40_000
HEAD_N = len(EMAIL_TARGETS)


@pytest.fixture(scope="module")
def universe():
    """(reference world, materialized target set), built once."""
    reference = WorldModel(MEMBER_SEED)
    return reference, reference.target_names(MEMBER_MAX_RANK)


def _filler_stem_digits(world: WorldModel, index: int):
    label = world.target_domain(HEAD_N + index + 1)[:-4]
    stem = label.rstrip(string.digits)
    return stem, label[len(stem):]


@st.composite
def filler_queries(draw):
    """(query, filler index its digit run addresses or None).

    Exact filler names from chunks far from the first, the same name
    with one stem letter changed, the stem moved to a neighbouring
    index, and a leading-zero alias — across the universe's edge too.
    """
    index = draw(st.integers(20 * _FILLER_CHUNK,
                             MEMBER_MAX_RANK - HEAD_N + 2 * _FILLER_CHUNK))
    stem, digits = _filler_stem_digits(WorldModel(MEMBER_SEED), index)
    kind = draw(st.sampled_from(["exact", "stem", "neighbour", "zero"]))
    if kind == "exact":
        return f"{stem}{digits}.com", index
    if kind == "stem":
        pos = draw(st.integers(0, len(stem) - 1))
        letter = draw(st.sampled_from(
            [c for c in string.ascii_lowercase if c != stem[pos]]))
        return f"{stem[:pos]}{letter}{stem[pos + 1:]}{digits}.com", index
    if kind == "neighbour":
        moved = index + draw(st.sampled_from([-1, 1]))
        return f"{stem}{moved}.com", moved
    return f"{stem}0{digits}.com", None


class TestMembershipOracle:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=filler_queries())
    def test_target_rank_matches_materialized_universe(self, universe,
                                                       case):
        reference, names = universe
        query, index = case
        world = WorldModel(MEMBER_SEED)
        cold = world.target_rank(query, MEMBER_MAX_RANK)
        assert not world._chunks, "a cold membership probe built a chunk"
        if index is not None:
            world._chunk(index // _FILLER_CHUNK)
        warm = world.target_rank(query, MEMBER_MAX_RANK)
        assert cold == warm
        assert (cold is not None) == (query in names)
        if cold is not None:
            assert reference.target_domain(cold) == query
        assert len(world._stems) <= _STEM_CACHE_CAP

    def test_every_exact_name_in_a_far_chunk_is_a_member(self, universe):
        reference, _ = universe
        world = WorldModel(MEMBER_SEED)
        first = HEAD_N + 30 * _FILLER_CHUNK + 1
        for rank in range(first, first + _FILLER_CHUNK, 7):
            assert world.target_rank(reference.target_domain(rank),
                                     MEMBER_MAX_RANK) == rank
        assert not world._chunks
        assert len(world._stems) <= _STEM_CACHE_CAP


class TestPhaseTimerKeys:
    def test_scan_records_the_keys_its_readers_use(self):
        perf = PerfRegistry()
        WorldModel(17).scan_ranks(1, 40, perf=perf)
        for key in ("scan.setup_seconds", "scan.draw_seconds",
                    "scan.probe_seconds"):
            assert key in perf.timers, key

    def test_featurize_records_the_keys_its_readers_use(self):
        perf = PerfRegistry()
        featurize_domains(17, 1, 40, perf=perf)
        for key in ("featurize.setup_seconds", "featurize.walk_seconds"):
            assert key in perf.timers, key


# -- the walk memo -------------------------------------------------------------

WALK_SEED = 909
#: (start_rank, stop_rank, max_rank) windows; CHURN re-keys ranks 5 and 40
WINDOW_A = (1, 61, 300)
WINDOW_B = (61, 121, 300)


def _scan(world, window, perf=None, **kwargs):
    start, stop, max_rank = window
    aggregates = world.scan_ranks(start, stop, max_rank=max_rank,
                                  perf=perf, **kwargs)
    return aggregates.digest(), aggregates.generated_count


def _sweep(world, window, perf=None, **kwargs):
    start, stop, max_rank = window
    sweep = featurize_domains(world.seed, start, stop, max_rank=max_rank,
                              world=world, perf=perf, **kwargs)
    return sweep.digest(), sweep.generated, sweep.n_rows, sweep.n_excluded


_CONSUMERS = {"scan": _scan, "sweep": _sweep}


def _fresh(kind, window, churn=None, seed=WALK_SEED):
    return _CONSUMERS[kind](WorldModel(seed, churn=churn), window)


def _reused(perf: PerfRegistry) -> int:
    return perf.counters.get("walk.reused_ranks", 0)


#: each order's steps, and whether each step reads the memo
ORDERS = {
    "scan_then_sweep": [("scan", WINDOW_A, False), ("sweep", WINDOW_A, True)],
    "sweep_then_scan": [("sweep", WINDOW_A, False), ("scan", WINDOW_A, True)],
    "scan_twice": [("scan", WINDOW_A, False), ("scan", WINDOW_A, True)],
    "sweep_twice": [("sweep", WINDOW_A, False), ("sweep", WINDOW_A, True)],
    "interleaved": [("scan", WINDOW_A, False), ("scan", WINDOW_B, False),
                    ("sweep", WINDOW_A, False), ("sweep", WINDOW_B, False),
                    ("scan", WINDOW_B, True)],
    "max_rank_miss": [("scan", WINDOW_A, False),
                      ("sweep", (1, 61, 1000), False),
                      ("scan", (1, 61, 1000), True)],
}


@pytest.mark.perfsmoke
class TestWalkMemo:
    @pytest.mark.parametrize("churn", [None, dict(CHURN)],
                             ids=["plain", "churned"])
    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_any_order_equals_a_fresh_world(self, order, churn):
        world = WorldModel(WALK_SEED, churn=churn)
        for kind, window, reads_memo in ORDERS[order]:
            perf = PerfRegistry()
            assert _CONSUMERS[kind](world, window, perf) == _fresh(
                kind, window, churn), (kind, window)
            assert (_reused(perf) > 0) == reads_memo, (kind, window)
            if reads_memo:
                assert _reused(perf) == window[1] - window[0]
                assert perf.counters["walk.reused_rows"] > 0

    def test_max_rank_keys_the_memo(self):
        """A walk at one universe size never answers for another: the
        colliding ctypo is wild below its target's rank, a target at
        it."""
        wide = (COLLIDING_RANK, COLLIDING_RANK + 1, 10**6)
        narrow = (COLLIDING_RANK, COLLIDING_RANK + 1,
                  COLLIDING_TARGET_RANK - 1)
        assert _fresh("sweep", wide, seed=COLLIDING_SEED) != _fresh(
            "sweep", narrow, seed=COLLIDING_SEED)
        world = WorldModel(COLLIDING_SEED)
        _scan(world, wide)
        assert _sweep(world, narrow) == _fresh("sweep", narrow,
                                               seed=COLLIDING_SEED)
        assert _scan(world, narrow) == _fresh("scan", narrow,
                                              seed=COLLIDING_SEED)

    def test_exclude_and_retain_read_the_memo(self):
        window = (1, 41, 300)
        start, stop, max_rank = window
        reference = WorldModel(WALK_SEED)
        domains = [state.domain for rank in range(start, stop)
                   for state in reference.rank_states(rank)]
        exclude = domains[::3]

        fresh_kept: list = []
        fresh = WorldModel(WALK_SEED).scan_ranks(
            start, stop, max_rank=max_rank, exclude=exclude,
            retain=fresh_kept)

        world = WorldModel(WALK_SEED)
        _sweep(world, window)
        perf = PerfRegistry()
        kept: list = []
        reused = world.scan_ranks(start, stop, max_rank=max_rank,
                                  exclude=exclude, retain=kept, perf=perf)
        assert _reused(perf) == stop - start
        assert reused.digest() == fresh.digest()
        assert kept == fresh_kept
        assert len(kept) == len(domains) - len(exclude)
        # self-hosted MX folds under the re-spelled domain
        assert any(state.mx_domain == state.domain for state, _ in kept)

    def test_evolved_world_walks_its_own_streams(self):
        parent = WorldModel(WALK_SEED)
        _scan(parent, WINDOW_A)
        child = parent.evolved(dict(CHURN))
        perf = PerfRegistry()
        assert _sweep(child, WINDOW_A, perf) == _fresh("sweep", WINDOW_A,
                                                       dict(CHURN))
        assert _reused(perf) == 0
        assert _scan(child, WINDOW_A) == _fresh("scan", WINDOW_A,
                                                dict(CHURN))
        assert _fresh("scan", WINDOW_A) != _fresh("scan", WINDOW_A,
                                                  dict(CHURN))
        # the parent keeps its own walk
        perf = PerfRegistry()
        assert _sweep(parent, WINDOW_A, perf) == _fresh("sweep", WINDOW_A)
        assert _reused(perf) == WINDOW_A[1] - WINDOW_A[0]

    def test_interrupted_walk_keeps_no_memo(self):
        start, stop, max_rank = WINDOW_A
        world = WorldModel(WALK_SEED)
        blocks = []

        def stop_after_first(raw):
            blocks.append(raw)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            world.featurize_ranks(start, stop, max_rank=max_rank,
                                  on_block=stop_after_first,
                                  block_records=256)
        assert len(blocks) == 1
        perf = PerfRegistry()
        assert _sweep(world, WINDOW_A, perf) == _fresh("sweep", WINDOW_A)
        assert _reused(perf) == 0
        assert _scan(world, WINDOW_A) == _fresh("scan", WINDOW_A)


class TestWalkMemoMemory:
    def test_a_window_past_the_row_cap_keeps_no_memo(self):
        """The bounded-memory test's 3k-rank window streams memo-free."""
        world = WorldModel(707)
        sweep = featurize_domains(707, 1, 3_001, max_rank=3_000,
                                  block_records=2_048, world=world)
        assert sweep.n_rows > _WALK_MEMO_ROWS
        assert world._walk_memo is None
        perf = PerfRegistry()
        world.scan_ranks(2_990, 3_001, max_rank=3_000, perf=perf)
        assert _reused(perf) == 0

    def test_the_head_window_memo_stays_small(self):
        """The memo of the sweep's head window (ranks 1-500, the widest
        one it reuses): the walk's own row tuples, under 96 bytes a row
        (word and visual cost with their list slots, plus a tuple and a
        few references per rank)."""
        world = WorldModel(707)
        tracemalloc.start()
        try:
            sweep = featurize_domains(707, 1, 501, max_rank=10**6,
                                      world=world)
            kept = tracemalloc.take_snapshot()
            world._walk_memo = None
            gc.collect()
            dropped = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert 20_000 < sweep.n_rows <= _WALK_MEMO_ROWS
        freed = -sum(stat.size_diff
                     for stat in dropped.compare_to(kept, "filename"))
        assert 16 * sweep.n_rows <= freed < 96 * sweep.n_rows, (
            f"the head-window walk memo holds {freed / 1e6:.2f}MB")


class TestUnclampedPicks:
    def test_the_largest_uniform_picks_a_valid_index(self):
        """The wild-state law's picks carry no clamp: a Philox ``random()``
        uniform is at most ``1 - 2**-53``, and at that value every pick
        still lands on a valid index."""
        u_max = float(np.nextafter(1.0, 0.0))
        assert u_max == 1 - 2**-53
        for n in range(1, 4097):
            assert int(u_max * n) < n
        world = WorldModel(5)
        tables = [(world._bulk_cum, world._bulk_total),
                  (world._pool_cum, world._pool_total)]
        tables += [(cum, total)
                   for _, cum, total in world._support_mixes.values()]
        for cum, total in tables:
            assert cum[-1] == total
            assert bisect_right(cum, u_max * total) < len(cum)


class TestWalkWordLayout:
    def test_fields_are_disjoint_and_fit_an_int64(self):
        used = 0
        for name, (shift, width) in _WALK_FIELDS.items():
            bits = ((1 << width) - 1) << shift
            assert not used & bits, name
            used |= bits
        assert used < 1 << 63

    def test_shared_fields_sit_at_their_feature_offsets(self):
        shared = set(_WALK_FIELDS) & set(FEATURE_PACK_SHIFTS)
        assert shared >= {"op", "index", "char", "mx", "support", "squat",
                          "adjacent"}
        for name in shared:
            assert _WALK_FIELDS[name][0] == FEATURE_PACK_SHIFTS[name]

    def test_word_rejects_a_value_past_its_field(self):
        assert _word(owner_pick=0x7FFF) == 0x7FFF << 17
        with pytest.raises(ValueError):
            _word(owner_pick=0x8000)
        with pytest.raises(ValueError):
            WorldModel(1, InternetConfig(bulk_registrant_count=0x8001))
