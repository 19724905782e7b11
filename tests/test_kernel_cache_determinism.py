"""Cache transparency: the kernel memo must never change an answer.

The one kernel cache left is the per-target typo-candidate cache; its
lists, from a cold cache and from a warm one, must equal the ones the
uncached generator builds, and its counters must describe the run since
the last clear.
"""

from __future__ import annotations

import pytest

from repro.core import TypoGenerator, clear_kernel_caches, kernel_cache_stats

TARGETS = ("gmail.com", "yahoo.com", "aol.com", "hotmail.com")


@pytest.fixture(autouse=True)
def _caches_cleared():
    """Start and leave every test with empty caches."""
    clear_kernel_caches()
    yield
    clear_kernel_caches()


def _candidates():
    generator = TypoGenerator()
    return {target: generator.generate(target) for target in TARGETS}


def test_candidates_agree_with_caches_on_and_off():
    generator = TypoGenerator()
    cold = {t: generator.generate(t) for t in TARGETS}
    warm = {t: generator.generate(t) for t in TARGETS}
    reference = {t: generator._generate_uncached(t) for t in TARGETS}
    assert cold == warm == reference
    assert kernel_cache_stats()["typogen_candidates"]["hits"] == len(TARGETS)


def test_warm_lookups_actually_hit_the_cache():
    _candidates()
    cold = kernel_cache_stats()["typogen_candidates"]
    _candidates()
    warm = kernel_cache_stats()["typogen_candidates"]
    assert cold["hits"] == 0 and cold["misses"] == len(TARGETS)
    assert warm["hits"] == len(TARGETS)


def test_clear_resets_hit_and_miss_counters():
    """A cleared cache reports a clean slate, not process-lifetime totals.

    Hit rates computed from :func:`kernel_cache_stats` must describe
    the run since the last clear; stale counters silently inflated the
    serving benchmark's reported rates.
    """
    _candidates()
    _candidates()
    dirty = kernel_cache_stats()
    assert sum(s["hits"] + s["misses"] for s in dirty.values()) > 0

    clear_kernel_caches()
    stats = kernel_cache_stats()
    for name, counters in stats.items():
        assert counters["hits"] == 0, name
        assert counters["misses"] == 0, name
        assert counters["size"] == 0, name

    # and the cache restarts from pure misses after the clear
    _candidates()
    cold = kernel_cache_stats()["typogen_candidates"]
    assert cold["hits"] == 0
    assert cold["misses"] == cold["size"] == len(TARGETS)
