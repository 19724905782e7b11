"""The one-slot registration law against the rank's whole grid.

``WorldModel.registers_typo(rank, typo, edit)`` decides one grid slot with
its own uniform; ``rank_grid`` draws every slot of the rank.  This suite
pins the point law equal to membership in the set of typo labels the
grid registers: for every valid slot of the head ranks and of every
dense rank (where the 0.95 cap can bind), for sampled sparse ranks, for
churned generations, and for arbitrary text, including labels with
characters outside the domain alphabet, which are never registered and
never raise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import classify_edit
from repro.core.typogen import apply_edit, enumerate_edit_ops
from repro.ecosystem.delta import ChurnSchedule
from repro.ecosystem.world import _QUALITY_MAX, WorldModel

SEED = 606
HEAD_N = 21
#: the last rank whose registration probability can reach the 0.95 cap
DENSE_LAST = 161
SPARSE_SAMPLE = (162, 163, 400, 1_000, 5_021, 20_000, 99_999, 1_000_000)


def _registers(world: WorldModel, rank: int, typo: str) -> bool:
    """The point law, given the edit the caller classifies once."""
    label, _ = world.target_parts(rank)
    return world.registers_typo(rank, typo, classify_edit(label, typo))


def _registered(world: WorldModel, rank: int):
    """The reference: every typo label the rank's grid registers."""
    grid = world.rank_grid(rank)
    return {apply_edit(grid.label, *grid.decode(flat))
            for flat in grid.registered.tolist()}


def _assert_point_law(world: WorldModel, rank: int) -> int:
    """Every valid slot of the rank: the point law == grid membership.
    Returns how many slots registered."""
    label, _ = world.target_parts(rank)
    registered = _registered(world, rank)
    typos = [apply_edit(label, *op) for op in enumerate_edit_ops(label)]
    answers = {typo for typo in typos if _registers(world, rank, typo)}
    assert answers == registered, rank
    return len(registered)


def test_dense_regime_ends_at_rank_161():
    config = WorldModel(SEED).config

    def capped(rank):
        reg_p = config.peak_registration_probability / (
            rank ** config.rank_decay)
        return reg_p * _QUALITY_MAX >= 0.95

    assert capped(DENSE_LAST) and not capped(DENSE_LAST + 1)


@pytest.mark.parametrize("seed", [SEED, 7])
def test_every_slot_of_the_dense_ranks(seed):
    """Ranks 1..161: the heads and every rank where the cap can bind."""
    world = WorldModel(seed)
    assert sum(_assert_point_law(world, rank)
               for rank in range(1, DENSE_LAST + 1)) > 0


def test_every_slot_of_sampled_sparse_ranks():
    world = WorldModel(SEED)
    for rank in SPARSE_SAMPLE:
        _assert_point_law(world, rank)


def test_churned_generations():
    schedule = ChurnSchedule(seed=SEED, max_rank=2_000, daily_rate=0.02)
    for day in (5, 30):
        churn = schedule.generations(day)
        world = WorldModel(SEED, churn=churn)
        churned = sorted(churn)
        assert churned
        moved = 0
        for rank in churned[:12] + [r for r in (1, 2, 150, 1_500)
                                    if r not in churn]:
            _assert_point_law(world, rank)
            moved += _registered(world, rank) != _registered(
                WorldModel(SEED), rank)
        assert moved > 0


#: characters a generated typo never holds, mixed with ones it does
FOREIGN = "_é ñмA.@\u200b\U0001f600"


@pytest.mark.parametrize("rank", [1, 2, HEAD_N + 1, 162, 5_000])
def test_foreign_characters_are_never_registered(rank):
    world = WorldModel(SEED)
    label, _ = world.target_parts(rank)
    for char in FOREIGN:
        for i in range(len(label) + 1):
            added = label[:i] + char + label[i:]
            assert _registers(world, rank, added) is False
            if i < len(label):
                swapped = label[:i] + char + label[i + 1:]
                assert _registers(world, rank, swapped) is False


@st.composite
def near_typos(draw):
    """A head or dense rank and one random edit of its label over an
    alphabet of domain and foreign characters (or arbitrary text)."""
    rank = draw(st.integers(1, 200))
    label, _ = WORLD.target_parts(rank)
    chars = st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-" + FOREIGN)
    kind = draw(st.sampled_from(["sub", "add", "del", "swap", "text"]))
    i = draw(st.integers(0, len(label) - 1))
    if kind == "sub":
        return rank, label[:i] + draw(chars) + label[i + 1:]
    if kind == "add":
        return rank, label[:i] + draw(chars) + label[i:]
    if kind == "del":
        return rank, label[:i] + label[i + 1:]
    if kind == "swap" and i + 1 < len(label):
        return rank, label[:i] + label[i + 1] + label[i] + label[i + 2:]
    return rank, draw(st.text(chars, max_size=12))


WORLD = WorldModel(SEED)


@settings(max_examples=400, deadline=None)
@given(near_typos())
def test_arbitrary_labels_match_the_grid(case):
    rank, typo = case
    assert _registers(WORLD, rank, typo) is (
        typo in _registered(WORLD, rank))
