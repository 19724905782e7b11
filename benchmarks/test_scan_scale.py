"""Paper-scale streaming scan throughput — the ISSUE's acceptance bar.

Times the lazy-world streaming scan at 1k, 10k and 100k Alexa ranks and
records gtypos/s and ctypos/s into ``BENCH_perf.json`` under
``scan_scale``.  The paper's own crawl covered the .com zone against the
Alexa top 100k; this bench is the harness's equivalent ecosystem sweep,
with an Alexa-1M point (``test_scan_scale_1m``) as the full-universe
stretch run.

The 100k-rank entry is the acceptance gate: its ctypo throughput must be
at least 10x the retained-scan baseline recorded by
``test_perf_baseline`` (~6k ctypos/s at the seed commit).  Marked slow —
the three sweeps together take ~10s single-core; the 1M point adds
another ~45s.

Raw ctypos/s *must* fall as the universe grows: the paper's rank-decay
registration density means ranks 10k..100k contribute ~6x fewer
registrations per rank than ranks 1..10k, so a full-run throughput gate
would be comparing different workloads.  The anti-sublinearity gate in
``test_scan_no_sublinear_overhead`` (perfsmoke lane) holds the workload
fixed instead: scanning the *same* ranks 1..10k must run at the same
speed whether the surrounding universe is 10k or 100k ranks — per-rank
cost may not depend on ``max_rank``.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

import pytest

from repro.ecosystem import WorldModel
from repro.experiment import run_sharded_scan
from repro.util.perf import throughput

from test_perf_baseline import BENCH_PATH, _load_bench, _save_bench

SCALE_SEED = 606
RANK_POINTS = (1_000, 10_000, 100_000)
#: The acceptance bar: the 100k-rank streaming scan must beat the
#: retained-scan baseline by this factor.
SPEEDUP_FACTOR = 10.0
#: ranks 1..10k inside a 100k universe must run at >= this fraction of
#: the same ranks inside a 10k universe (1.0 = no overhead at all; the
#: margin absorbs single-core timer noise, ~15% on the bench machine)
EQUAL_DENSITY_FLOOR = 0.9


@pytest.mark.slow
def test_scan_scale_throughput():
    points = []
    for ranks in RANK_POINTS:
        start = time.perf_counter()
        aggregates = run_sharded_scan(SCALE_SEED, ranks, jobs=1)
        wall = time.perf_counter() - start
        points.append({
            "ranks": ranks,
            "wall_seconds": round(wall, 3),
            "gtypos_generated": aggregates.generated_count,
            "ctypos_registered": aggregates.registered_count,
            "gtypos_per_sec": round(
                throughput(aggregates.generated_count, wall), 1),
            "ctypos_per_sec": round(
                throughput(aggregates.registered_count, wall), 1),
            "digest": aggregates.digest(),
        })
        print(f"\n{ranks:>7,} ranks: {wall:6.2f}s  "
              f"{points[-1]['ctypos_per_sec']:>10,.1f} ctypos/s  "
              f"{points[-1]['gtypos_per_sec']:>13,.0f} gtypos/s")

    bench = _load_bench()
    bench["scan_scale"] = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "seed": SCALE_SEED,
        "points": points,
    }
    _save_bench(bench)

    # more ranks must never mean fewer registrations
    registered = [p["ctypos_registered"] for p in points]
    assert registered == sorted(registered)
    assert registered[0] > 0

    # the acceptance gate: 100k ranks at >= 10x the retained-scan baseline
    baseline = bench.get("baseline") or {}
    baseline_rate = (baseline.get("scan") or {}).get(
        "ctypos_scanned_per_sec", 6053.0)
    paper_scale = points[-1]
    assert paper_scale["ctypos_per_sec"] >= SPEEDUP_FACTOR * baseline_rate, (
        f"100k-rank streaming scan ran at "
        f"{paper_scale['ctypos_per_sec']:,.1f} ctypos/s — below "
        f"{SPEEDUP_FACTOR}x the {baseline_rate:,.1f}/s retained baseline")


@pytest.mark.slow
def test_scan_scale_1m():
    """The Alexa-1M stretch point: scan the full universe, record it.

    No throughput gate here — at 1M the registration density has decayed
    ~6x below the 10k point, so gating raw ctypos/s would re-litigate
    the density law (see the module docstring); the sublinearity gate
    lives in ``test_scan_no_sublinear_overhead``.  This point exists so
    ``BENCH_perf.json`` tracks the full-universe wall-clock across
    commits.
    """
    ranks = 1_000_000
    start = time.perf_counter()
    aggregates = run_sharded_scan(SCALE_SEED, ranks, jobs=1)
    wall = time.perf_counter() - start
    point = {
        "ranks": ranks,
        "wall_seconds": round(wall, 3),
        "gtypos_generated": aggregates.generated_count,
        "ctypos_registered": aggregates.registered_count,
        "gtypos_per_sec": round(
            throughput(aggregates.generated_count, wall), 1),
        "ctypos_per_sec": round(
            throughput(aggregates.registered_count, wall), 1),
        "digest": aggregates.digest(),
    }
    print(f"\n{ranks:>9,} ranks: {wall:6.2f}s  "
          f"{point['ctypos_per_sec']:>10,.1f} ctypos/s  "
          f"{point['gtypos_per_sec']:>13,.0f} gtypos/s")

    bench = _load_bench()
    scale = bench.setdefault("scan_scale", {"seed": SCALE_SEED, "points": []})
    scale["points"] = ([p for p in scale.get("points", ())
                        if p.get("ranks") != ranks] + [point])
    scale["points"].sort(key=lambda p: p["ranks"])
    scale["recorded_utc"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    _save_bench(bench)

    assert aggregates.registered_count > 0
    # a rank's work must not depend on the universe size around it —
    # the 1M run may not be slower per rank than ~2x the 100k run
    by_ranks = {p["ranks"]: p for p in scale["points"]}
    if 100_000 in by_ranks:
        per_rank_100k = by_ranks[100_000]["wall_seconds"] / 100_000
        assert wall / ranks <= 2.0 * per_rank_100k, (
            "per-rank wall-clock degraded superlinearly between 100k "
            "and 1M ranks")


def _time_window_scan(max_rank: int, stop_rank: int = 10_001) -> float:
    """Cold-world wall-clock of scanning ranks 1..stop_rank-1.

    A fresh ``WorldModel`` per measurement is the point: the historic
    sublinearity bug was O(max_rank) *setup* work (materializing the
    whole target universe before the first rank), which a warm world
    would hide.
    """
    start = time.perf_counter()
    WorldModel(SCALE_SEED).scan_ranks(1, stop_rank, max_rank=max_rank)
    return time.perf_counter() - start


@pytest.mark.perfsmoke
def test_scan_no_sublinear_overhead():
    """Equal-density anti-sublinearity gate (the tentpole's regression
    guard): the same ranks must cost the same regardless of how large
    the surrounding universe is.  Best-of-3, interleaved so machine
    noise hits both variants alike.
    """
    small = []
    large = []
    for _ in range(3):
        small.append(_time_window_scan(max_rank=10_000))
        large.append(_time_window_scan(max_rank=100_000))
    ratio = min(small) / min(large)
    print(f"\nranks 1..10k: {min(small):.3f}s @10k universe, "
          f"{min(large):.3f}s @100k universe (ratio {ratio:.3f})")
    assert ratio >= EQUAL_DENSITY_FLOOR, (
        f"scanning ranks 1..10k slowed to {ratio:.2f}x of its 10k-universe "
        f"speed inside a 100k universe — setup or per-record cost is "
        f"scaling with max_rank again")
