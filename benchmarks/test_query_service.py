"""Serving benchmark: the resident query service under mixed traffic.

The perfsmoke lane's serving gate.  One modest but honest run — tens of
thousands of ranks, hundreds of thousands of lookups, a parity sample
against the brute-force scan — records p50/p99 latency, sustained QPS,
and index build time into the ``query_service`` section of
``BENCH_perf.json``, then holds the acceptance floor: a warm mixed
workload must sustain at least 50k lookups/sec with p99 at or under
1ms.  (The full-scale acceptance run is ``repro serve-bench --ranks
100000``; it clears the same floor by orders of magnitude.)
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.service import run_serve_bench
from repro.util.perf import record_bench

from test_perf_baseline import BENCH_PATH, REGRESSION_FACTOR

SERVE_SEED = 606
SERVE_RANKS = 20_000
SERVE_LOOKUPS = 200_000
SERVE_POOL = 2048
PARITY_SAMPLE = 30

#: the issue's acceptance floor, held at perfsmoke scale too
MIN_QPS = 50_000.0
MAX_P99_US = 1_000.0


@pytest.mark.perfsmoke
def test_query_service_serving_floor():
    result = run_serve_bench(SERVE_SEED, SERVE_RANKS,
                             lookups=SERVE_LOOKUPS, pool_size=SERVE_POOL,
                             parity=PARITY_SAMPLE)
    for line in result.report_lines():
        print(line)

    # the run is honest before it is fast
    assert result.lookups == SERVE_LOOKUPS
    assert result.parity_checked == PARITY_SAMPLE
    assert result.verdict_counts.get("clean", 0) > 0
    assert result.verdict_counts.get("typo_risk", 0) > 0
    assert result.engine_hit_rate > 0.5  # warm regime, by construction

    section = record_bench(BENCH_PATH, "query_service", asdict(result))

    # acceptance floor
    assert result.qps >= MIN_QPS, (
        f"serving too slow: {result.qps:,.0f} lookups/sec "
        f"(floor {MIN_QPS:,.0f})")
    assert result.p99_us <= MAX_P99_US, (
        f"p99 latency too high: {result.p99_us:.1f}us "
        f"(ceiling {MAX_P99_US:.0f}us)")

    # trajectory gate against the recorded baseline
    baseline = section["baseline"]
    assert result.qps >= baseline["qps"] / REGRESSION_FACTOR, (
        f"serving QPS regressed: {result.qps:,.0f}/s vs baseline "
        f"{baseline['qps']:,.0f}/s (gate {REGRESSION_FACTOR}x) — if this "
        "slowdown is intended, delete the query_service section of "
        "BENCH_perf.json to re-baseline")
    assert result.p99_us <= baseline["p99_us"] * REGRESSION_FACTOR, (
        f"serving p99 regressed: {result.p99_us:.2f}us vs baseline "
        f"{baseline['p99_us']:.2f}us (gate {REGRESSION_FACTOR}x)")
    assert result.build_seconds <= max(
        baseline["build_seconds"] * REGRESSION_FACTOR, 1.0), (
        f"index build regressed: {result.build_seconds:.3f}s vs "
        f"baseline {baseline['build_seconds']:.3f}s")


# -- resilient serving under the demo fault plan --------------------------

CHAOS_RANKS = 20_000
CHAOS_LOOKUPS = 120_000

#: the issue's degraded-lane floor: rules-only serving stays cheap
MIN_RULES_ONLY_QPS = 20_000.0


@pytest.mark.perfsmoke
def test_service_chaos_floor():
    """The chaos lane's serving gate: replay, no drops, degraded QPS.

    Two identical runs pin the replay digest (same seed, plan, and
    workload must serve byte-identical verdict streams — shed and
    degraded labels included), no lookup is ever dropped, and the
    rules-only degraded lane clears its QPS floor.  The run lands in
    the ``service_chaos`` section of ``BENCH_perf.json``.
    """
    from repro.service import run_serve_chaos_bench

    result = run_serve_chaos_bench(SERVE_SEED, CHAOS_RANKS,
                                   lookups=CHAOS_LOOKUPS,
                                   pool_size=SERVE_POOL)
    for line in result.report_lines():
        print(line)

    # honest before fast: the plan actually bit
    assert result.lookups == CHAOS_LOOKUPS
    assert result.tripped > 0 and result.churn_swaps > 0
    assert result.shed_lookups > 0
    assert result.rules_only_lookups > 0

    # resilience floors
    assert result.dropped == 0, (
        f"{result.dropped} lookups dropped — the resilient server must "
        "answer every query")
    rules_only_qps = result.lane_qps.get("rules_only", 0.0)
    assert rules_only_qps >= MIN_RULES_ONLY_QPS, (
        f"rules-only degraded lane too slow: {rules_only_qps:,.0f}/s "
        f"(floor {MIN_RULES_ONLY_QPS:,.0f})")

    # replay stability: a second identical run serves identical bytes
    replay = run_serve_chaos_bench(SERVE_SEED, CHAOS_RANKS,
                                   lookups=CHAOS_LOOKUPS,
                                   pool_size=SERVE_POOL)
    assert replay.verdict_digest == result.verdict_digest, (
        "chaos serving is not replayable: two identical runs digested "
        "differently")

    section = record_bench(BENCH_PATH, "service_chaos", asdict(result))
    baseline = section["baseline"]
    assert result.qps >= baseline["qps"] / REGRESSION_FACTOR, (
        f"chaos serving QPS regressed: {result.qps:,.0f}/s vs baseline "
        f"{baseline['qps']:,.0f}/s (gate {REGRESSION_FACTOR}x) — if this "
        "slowdown is intended, delete the service_chaos section of "
        "BENCH_perf.json to re-baseline")


@pytest.mark.perfsmoke
def test_verdict_memo_hit_rate_across_capacity_boundary():
    """Satellite gate: no 0%-hit-rate cliff when the memo rotates.

    A workload whose hot set is re-served while a unique-query flood
    rotates the two-generation memo keeps a >= 40% overall hit rate —
    under the old wholesale ``clear()`` the same stream measured ~0%
    once the flood crossed the capacity boundary.
    """
    from repro.service import RiskEngine, TypoRiskIndex

    engine = RiskEngine(TypoRiskIndex(SERVE_SEED, 2_000),
                        max_cached_verdicts=256)
    hot = [f"hot-{position}.org" for position in range(40)]
    for position in range(8_000):
        if position % 2:
            engine.lookup(hot[(position // 2) % len(hot)])
        else:
            engine.lookup(f"flood-{position}.org")
    stats = engine.cache_stats()
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    print(f"\nmemo hit rate across capacity boundary: {hit_rate:.1%} "
          f"({stats['hits']} hits / {stats['misses']} misses, "
          f"size {stats['size']})")
    assert stats["size"] <= 256
    assert hit_rate >= 0.40, (
        f"two-generation memo hit rate collapsed: {hit_rate:.1%} "
        "(floor 40%) — hot entries are not surviving rotation")
