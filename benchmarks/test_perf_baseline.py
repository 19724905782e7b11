"""Performance baseline — the repo's speed trajectory.

Not a paper table: the harness's own wall-clock and throughput, recorded
to ``BENCH_perf.json`` so future changes have a trajectory to compare
against.  Two workloads are timed:

* one full seven-month study run (the `study` CLI hot path), reporting
  emails simulated per second from the run's own perf snapshot;
* one wild-ecosystem scan, reporting registered ctypo domains scanned
  per second;
* one streaming lazy-world scan over the first 10k Alexa ranks,
  reporting generated gtypos and registered ctypos per second.

The run is recorded as the ``perf_baseline`` section: the first recorded
run is the baseline, and later runs **fail** when the study wall-clock —
or either scan's throughput — regresses more than 2x against it.  An
accidental O(n^2) in a hot path shows up here before it shows up in a
reviewer's patience.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.ecosystem import EcosystemScanner, InternetConfig, build_internet
from repro.experiment import ExperimentConfig, StudyRunner, run_sharded_scan
from repro.util import SeededRng
from repro.util.perf import record_bench, throughput

#: The canonical timing workload (matches the perf acceptance run).
PERF_CONFIG = ExperimentConfig(seed=606, spam_scale=2e-4)
SCAN_CONFIG = InternetConfig(num_filler_targets=40)
SCAN_SEED = 606
STREAM_RANKS = 10_000

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
#: Regression gate: fail when the study takes this many times the
#: recorded baseline wall-clock.
REGRESSION_FACTOR = 2.0


def _timed_study():
    start = time.perf_counter()
    results = StudyRunner(PERF_CONFIG).run()
    return results, time.perf_counter() - start


def _timed_scan():
    start = time.perf_counter()
    internet = build_internet(SeededRng(SCAN_SEED, name="world"),
                              SCAN_CONFIG)
    scan = EcosystemScanner(internet).scan()
    return scan, time.perf_counter() - start


def _timed_stream():
    start = time.perf_counter()
    aggregates = run_sharded_scan(SCAN_SEED, STREAM_RANKS, jobs=1)
    return aggregates, time.perf_counter() - start


def test_perf_baseline(benchmark):
    ((results, study_wall), (scan, scan_wall),
     (stream, stream_wall)) = benchmark.pedantic(
        lambda: (_timed_study(), _timed_scan(), _timed_stream()),
        iterations=1, rounds=1)

    perf = results.perf or {}
    entry = {
        "study": {
            "config": {"seed": PERF_CONFIG.seed,
                       "spam_scale": PERF_CONFIG.spam_scale},
            "wall_seconds": round(study_wall, 3),
            "emails_sent": results.sent_count,
            "emails_delivered": results.delivered_count,
            "records": len(results.records),
            "throughput": perf.get("throughput", {}),
            "phase_seconds": {
                name: round(stat["seconds"], 3)
                for name, stat in perf.get("timers", {}).items()},
        },
        "scan": {
            "wall_seconds": round(scan_wall, 3),
            "gtypos_generated": scan.generated_count,
            "ctypos_registered": scan.registered_count,
            "ctypos_scanned_per_sec": round(
                throughput(scan.registered_count, scan_wall), 1),
        },
        "streaming_scan": {
            "ranks": STREAM_RANKS,
            "wall_seconds": round(stream_wall, 3),
            "gtypos_generated": stream.generated_count,
            "ctypos_registered": stream.registered_count,
            "gtypos_per_sec": round(
                throughput(stream.generated_count, stream_wall), 1),
            "ctypos_per_sec": round(
                throughput(stream.registered_count, stream_wall), 1),
        },
    }

    baseline = record_bench(BENCH_PATH, "perf_baseline", entry)["baseline"]
    baseline_wall = baseline["study"]["wall_seconds"]
    baseline_scan_rate = baseline["scan"]["ctypos_scanned_per_sec"]
    baseline_stream_rate = baseline["streaming_scan"]["ctypos_per_sec"]
    sent_rate = entry["study"]["throughput"].get("emails_sent_per_sec", 0.0)
    print(f"\nstudy: {study_wall:.2f}s wall, "
          f"{sent_rate:,.0f} emails simulated/sec "
          f"(baseline {baseline_wall:.2f}s)")
    print(f"scan:  {scan_wall:.2f}s wall, "
          f"{entry['scan']['ctypos_scanned_per_sec']:,.1f} "
          "ctypos scanned/sec")
    print(f"stream: {stream_wall:.2f}s wall for {STREAM_RANKS:,} ranks, "
          f"{entry['streaming_scan']['ctypos_per_sec']:,.1f} ctypos/sec, "
          f"{entry['streaming_scan']['gtypos_per_sec']:,.0f} gtypos/sec")

    # sanity: the snapshot carries real throughput numbers
    assert sent_rate > 0
    assert entry["scan"]["ctypos_scanned_per_sec"] > 0
    assert entry["streaming_scan"]["ctypos_per_sec"] > 0
    # the regression gates
    assert study_wall <= REGRESSION_FACTOR * baseline_wall, (
        f"study run regressed: {study_wall:.2f}s vs recorded baseline "
        f"{baseline_wall:.2f}s (gate {REGRESSION_FACTOR}x) — if this "
        "slowdown is intended, delete the perf_baseline section of "
        "BENCH_perf.json to re-baseline")
    assert (entry["scan"]["ctypos_scanned_per_sec"]
            >= baseline_scan_rate / REGRESSION_FACTOR), (
        f"scan throughput regressed: "
        f"{entry['scan']['ctypos_scanned_per_sec']:,.1f}/s vs baseline "
        f"{baseline_scan_rate:,.1f}/s (gate {REGRESSION_FACTOR}x)")
    assert (entry["streaming_scan"]["ctypos_per_sec"]
            >= baseline_stream_rate / REGRESSION_FACTOR), (
        f"streaming scan throughput regressed: "
        f"{entry['streaming_scan']['ctypos_per_sec']:,.1f}/s vs baseline "
        f"{baseline_stream_rate:,.1f}/s (gate {REGRESSION_FACTOR}x)")
