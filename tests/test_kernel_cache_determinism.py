"""Cache transparency: the kernel memos must never change an answer.

The distance/typo caches exist purely for speed; every cached kernel is
a pure function of its string arguments, so its answers, from a cold
cache and from a warm one, must equal the ``_*_uncached`` reference it
memoizes, and the per-target candidate cache must hand back the lists
the uncached generator builds.
"""

from __future__ import annotations

import pytest

from repro.core import (
    TypoGenerator,
    clear_kernel_caches,
    damerau_levenshtein,
    fat_finger_distance,
    kernel_cache_stats,
    visual_distance,
)
from repro.core.distances import (
    _damerau_levenshtein_uncached,
    _fat_finger_distance_uncached,
    _visual_distance_uncached,
)

TARGETS = ("gmail.com", "yahoo.com", "aol.com", "hotmail.com")
PAIRS = [
    ("gmail.com", "gmial.com"),
    ("gmail.com", "gmall.com"),
    ("yahoo.com", "yaho.com"),
    ("hotmail.com", "hotmali.com"),
    ("aol.com", "apl.com"),
    ("example.org", "example.org"),
    ("", "a"),
]


@pytest.fixture(autouse=True)
def _caches_cleared():
    """Start and leave every test with empty caches."""
    clear_kernel_caches()
    yield
    clear_kernel_caches()


def _distance_answers():
    return [(damerau_levenshtein(a, b),
             fat_finger_distance(a, b),
             visual_distance(a, b)) for a, b in PAIRS]


def _reference_answers():
    # the public kernels short-circuit equal strings before the memo
    return [(0, 0, 0.0) if a == b else
            (_damerau_levenshtein_uncached(a, b),
             _fat_finger_distance_uncached(a, b, 3),
             _visual_distance_uncached(a, b)) for a, b in PAIRS]


def test_distances_agree_with_caches_on_and_off():
    """Cache on: the public kernels; off: the references they memoize."""
    cached_cold = _distance_answers()
    cached_warm = _distance_answers()   # every lookup now hits the cache
    assert cached_cold == cached_warm == _reference_answers()


def test_candidates_agree_with_caches_on_and_off():
    generator = TypoGenerator()
    cold = {t: generator.generate(t) for t in TARGETS}
    warm = {t: generator.generate(t) for t in TARGETS}
    reference = {t: generator._generate_uncached(t) for t in TARGETS}
    assert cold == warm == reference
    assert kernel_cache_stats()["typogen_candidates"]["hits"] == len(TARGETS)


def test_warm_lookups_actually_hit_the_cache():
    _distance_answers()
    cold = kernel_cache_stats()
    _distance_answers()
    warm = kernel_cache_stats()

    total_cold_hits = sum(s["hits"] for s in cold.values())
    total_warm_hits = sum(s["hits"] for s in warm.values())
    assert total_warm_hits > total_cold_hits


def test_clear_resets_hit_and_miss_counters():
    """A cleared cache reports a clean slate, not process-lifetime totals.

    Hit rates computed from :func:`kernel_cache_stats` must describe
    the run since the last clear; stale counters silently inflated the
    serving benchmark's reported rates.
    """
    _distance_answers()
    _distance_answers()
    dirty = kernel_cache_stats()
    assert sum(s["hits"] + s["misses"] for s in dirty.values()) > 0

    clear_kernel_caches()
    stats = kernel_cache_stats()
    for name, counters in stats.items():
        assert counters["hits"] == 0, name
        assert counters["misses"] == 0, name
        assert counters["size"] == 0, name

    # and the DL cache — unique pairs, no intra-pass reuse — restarts
    # from pure misses after the clear
    _distance_answers()
    cold = kernel_cache_stats()
    dl = cold["damerau_levenshtein"]
    assert dl["hits"] == 0
    assert dl["misses"] == dl["size"] > 0
