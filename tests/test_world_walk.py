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
* the phase-timer keys the benchmark and ``repro scan`` read by name.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.targets import EMAIL_TARGETS
from repro.ecosystem.world import _FILLER_CHUNK, _STEM_CACHE_CAP, WorldModel
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
