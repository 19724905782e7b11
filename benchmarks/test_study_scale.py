"""Paper-scale study engine throughput + memory — the ISSUE's acceptance bar.

Runs the 10x-scale study (``spam_scale`` ten times the perf-baseline
config) and records, under ``study_scale`` in ``BENCH_perf.json``:

* classify-phase throughput (emails delivered per second of classify
  wall-clock, best of three passes over the same retained corpus) — the
  gate requires at least 3x the serial classify rate recorded by
  ``test_perf_baseline`` at the seed commit (~9.4k emails/s);
* peak ``tracemalloc`` memory for the batch pipeline vs the
  bounded-memory streaming pipeline (``retain_messages=False`` plus a
  ``RecordDigestSink``) — the bounded peak must stay under half the
  batch peak, and must grow sublinearly in traffic (under 6x when the
  corpus grows 10x);
* the record-stream digest of the batch run and the multiset digest of
  the sink run, which must agree — the speed must not buy a different
  dataset.

Throughput is measured untraced (tracemalloc slows the interpreter
1.5-2.5x); the memory comparisons trace dedicated runs.  Marked slow —
the traced runs dominate, a few minutes single-core in total.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from datetime import datetime, timezone

import pytest

from repro.experiment import (
    ExperimentConfig,
    RecordDigestSink,
    StudyRunner,
    record_multiset_digest,
    record_stream_digest,
)
from repro.experiment.classify import ClassifyContext, classify_corpus_records
from repro.util.perf import PerfRegistry, throughput

from test_perf_baseline import BENCH_PATH, _load_bench, _save_bench

SCALE_SEED = 606
BASE_SPAM_SCALE = 2e-4          # the perf-baseline study config
SCALE_FACTOR = 10
#: classify-phase throughput must beat the serial baseline by this factor
SPEEDUP_FACTOR = 3.0
#: bounded-memory peak must stay under this fraction of the batch peak
MEMORY_FRACTION = 0.5
#: and grow less than this when traffic grows by SCALE_FACTOR
MEMORY_GROWTH_LIMIT = 6.0
CLASSIFY_PASSES = 3


def _study_config(scale: float = SCALE_FACTOR, **overrides):
    return ExperimentConfig(seed=SCALE_SEED,
                            spam_scale=BASE_SPAM_SCALE * scale,
                            **overrides)


def _traced_peak_mb(config: ExperimentConfig, sink=None):
    """Peak traced memory (MB) and the results of one study run."""
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        runner = StudyRunner(config)
        results = runner.run(record_sink=sink) if sink else runner.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, results


@pytest.mark.slow
def test_study_scale_throughput_and_memory():
    # -- throughput (untraced): one full study, then best-of-N classify ----
    results = StudyRunner(_study_config()).run()
    delivered = results.delivered_count
    batch_digest = record_stream_digest(results.records)
    batch_multiset = record_multiset_digest(results.records)
    study_classify = results.perf["timers"]["classify"]["seconds"]

    messages = [record.tokenized.original for record in results.records]
    true_kind = {message.sequence: record.true_kind
                 for message, record in zip(messages, results.records)}
    context = ClassifyContext(
        our_domains=tuple(d.domain for d in results.corpus.domains),
        ip_to_domain=ClassifyContext.ip_map(results.infra),
        process_non_spam=True)
    best_seconds = float("inf")
    for _ in range(CLASSIFY_PASSES):
        start = time.perf_counter()
        classify_corpus_records(messages, context, true_kind,
                                PerfRegistry())
        best_seconds = min(best_seconds, time.perf_counter() - start)
    rate = throughput(delivered, best_seconds)
    print(f"\nclassify 10x: {best_seconds:.2f}s best of {CLASSIFY_PASSES} "
          f"({rate:,.0f} emails/s; in-study {study_classify:.2f}s)")

    del results, messages, true_kind
    gc.collect()

    # -- memory (traced): bounded-streaming sink vs batch ------------------
    sink = RecordDigestSink()
    bounded_peak, bounded_results = _traced_peak_mb(
        _study_config(streaming_classify=True, retain_messages=False),
        sink=sink)
    assert bounded_results.records == []
    assert sink.count == delivered
    assert sink.digest() == batch_multiset, (
        "bounded-memory streaming run produced a different record multiset")
    del bounded_results
    gc.collect()

    batch_peak, batch_results = _traced_peak_mb(_study_config())
    assert record_stream_digest(batch_results.records) == batch_digest, (
        "batch record stream is not deterministic across runs")
    del batch_results
    gc.collect()

    sink_1x = RecordDigestSink()
    bounded_1x_peak, results_1x = _traced_peak_mb(
        _study_config(scale=1, streaming_classify=True,
                      retain_messages=False), sink=sink_1x)
    delivered_1x = results_1x.delivered_count
    del results_1x
    print(f"peak memory: batch 10x {batch_peak:.0f} MB, bounded 10x "
          f"{bounded_peak:.0f} MB, bounded 1x {bounded_1x_peak:.0f} MB")

    # -- record ------------------------------------------------------------
    bench = _load_bench()
    baseline_rate = throughput(
        (bench.get("baseline") or {}).get("study", {}).get(
            "emails_delivered", 0),
        (bench.get("baseline") or {}).get("study", {}).get(
            "phase_seconds", {}).get("classify", 0)) or 9379.0
    bench["study_scale"] = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "config": {"seed": SCALE_SEED,
                   "spam_scale": BASE_SPAM_SCALE * SCALE_FACTOR},
        "emails_delivered": delivered,
        "classify_seconds_best": round(best_seconds, 3),
        "classify_seconds_in_study": round(study_classify, 3),
        "emails_classified_per_sec": round(rate, 1),
        "baseline_classify_per_sec": round(baseline_rate, 1),
        "speedup": round(rate / baseline_rate, 2),
        "record_stream_digest": batch_digest,
        "record_multiset_digest": batch_multiset,
        "peak_mb": {"batch_10x": round(batch_peak, 1),
                    "bounded_10x": round(bounded_peak, 1),
                    "bounded_1x": round(bounded_1x_peak, 1)},
        "deliveries_1x": delivered_1x,
    }
    _save_bench(bench)

    # -- gates -------------------------------------------------------------
    assert rate >= SPEEDUP_FACTOR * baseline_rate, (
        f"classify phase ran at {rate:,.0f} emails/s — below "
        f"{SPEEDUP_FACTOR}x the {baseline_rate:,.0f}/s serial baseline")
    assert bounded_peak <= MEMORY_FRACTION * batch_peak, (
        f"bounded-memory peak {bounded_peak:.0f} MB is not under "
        f"{MEMORY_FRACTION:.0%} of the {batch_peak:.0f} MB batch peak")
    assert bounded_peak <= MEMORY_GROWTH_LIMIT * bounded_1x_peak, (
        f"bounded-memory peak grew {bounded_peak / bounded_1x_peak:.1f}x "
        f"for {SCALE_FACTOR}x traffic — not sublinear")
