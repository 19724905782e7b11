"""The filler stem table: the parse that names a stem, and the indices
``WorldModel.filler_indices`` answers for it.

* every 2- and 3-syllable composition parses back to the code the
  vectorised packer gives it, and no two compositions share a code;
* strings no filler can have as a stem (a cluster that is not an onset,
  a trailing consonant, 1 or 4 syllables, a digit or a non-ASCII
  character) parse to nothing and name no filler;
* at several universe sizes the table's indices for each stem equal a
  scan of the materialized names;
* a world's syllable draws, through its reused ``"fillers"`` stream,
  equal the one-shot ``_rank_uniforms`` reference at any chunk, in any
  order.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from repro.ecosystem.internet import _PRONOUNCEABLE_ONSETS
from repro.ecosystem.world import (
    _FILLER_CHUNK,
    _SYL_TABLE,
    WorldModel,
    _filler_syllables,
    _rank_uniforms,
    _stem_code,
    _stem_codes,
)

HEAD_N = 21
SYL = _SYL_TABLE


def test_every_composition_round_trips():
    n = len(SYL)
    pairs = list(product(range(n), repeat=2))
    triples = list(product(range(n), repeat=3))
    flat = array("H", [s for pair in pairs for s in (*pair, 0)]
                 + [s for triple in triples for s in triple])
    third = np.array([False] * len(pairs) + [True] * len(triples))
    codes = _stem_codes((flat, third.tobytes())).tolist()
    assert len(set(codes)) == len(codes)
    stems = ["".join(SYL[s] for s in pair) for pair in pairs] + [
        "".join(SYL[s] for s in triple) for triple in triples]
    assert [_stem_code(stem) for stem in stems] == codes


@pytest.mark.parametrize("stem", [
    "blate", "tebli", "pstra",              # a cluster that is not an onset
    "teris", "brazot", "terim",             # a trailing consonant
    "ta", "bro", "a", "",                   # one syllable or none
    "tatatata", "brotevizu",                # four syllables
    "eta", "atebra", "taae",                # a vowel with no onset
    "te1ri", "teri0", "tér", "teré", "тери",  # a digit or non-ASCII
    "Teri", "te-ri",
])
def test_non_stems_name_no_filler(stem):
    assert _stem_code(stem) is None
    assert WorldModel(5).filler_indices(stem, 5_000) == []


def test_onsets_hold_no_vowel():
    assert not any(set(onset) & set("aeiou")
                   for onset in _PRONOUNCEABLE_ONSETS)


@pytest.mark.parametrize("count", [1, 10, _FILLER_CHUNK, _FILLER_CHUNK + 1,
                                   7_000])
def test_table_equals_a_scan_of_the_names(count):
    world = WorldModel(29)
    expected = defaultdict(list)
    for index in range(count):
        label = world.target_domain(HEAD_N + index + 1)[:-4]
        expected[label.rstrip("0123456789")].append(index)
    fresh = WorldModel(29)
    for stem, indices in expected.items():
        assert fresh.filler_indices(stem, count) == indices, stem
    assert not fresh._chunks
    # a stem that only fillers past the universe carry names none in it
    beyond = world.target_domain(HEAD_N + count + 1)[:-4].rstrip(
        "0123456789")
    assert fresh.filler_indices(beyond, count) == expected.get(beyond, [])


def test_evolved_worlds_share_the_table():
    world = WorldModel(29)
    stem = world._filler_stem(3)
    assert 3 in world.filler_indices(stem, 2_000)
    evolved = world.evolved({5: 1})
    assert evolved._stem_tables is world._stem_tables
    assert evolved.filler_indices(stem, 2_000) == world.filler_indices(
        stem, 2_000)


@pytest.mark.parametrize("seed", [5, 2016])
def test_syllables_equal_the_one_shot_reference(seed):
    chunks = [976, 0, 97, 1, 0]
    world = WorldModel(seed)
    for chunk in chunks:
        # a seeked one-filler draw from the same stream (no chunk is
        # cached) must not shift the next chunk's draw
        world._stems.clear()
        world._filler_stem((chunk + 3) * _FILLER_CHUNK + 5)
        flat_i, third = world._syllables(chunk)
        ref_i, ref_third = _filler_syllables(
            _rank_uniforms(seed, "fillers", chunk, _FILLER_CHUNK * 7))
        assert flat_i == ref_i and third == ref_third, chunk
