"""Learned-detector throughput — the feature engine's speed gates.

The perfsmoke lane times the two learned lanes end to end and records
them into the ``learned_detector`` section of ``BENCH_perf.json``:

* **message lane** — vectorized featurize + score over a 4k-message
  corpus versus the per-message rule funnel on the same messages.  The
  issue's acceptance bar: the learned path must clear **5x** the funnel's
  per-message throughput.  (Summaries ride the stage-A projection in
  both paths, so the comparison is verdict work vs. matrix work.)
* **domain lane** — a 20k-rank feature sweep: the extraction walk over
  the lazy world, then the columnar pass (one ``block_matrix`` + one
  fused matmul/stump scoring call per block).

The slow lane (``test_learned_full_sweep_1m``) runs the Alexa-1M stretch
point: extract all ~2.6M registered-typo rows, then hold the issue's
second bar — the columnar featurize+score pass over the full universe
must finish in **under 30 seconds**.  Extraction wall-clock is recorded
honestly alongside (it rides the scan lane and is gated there).

First recording becomes the regression baseline; later perfsmoke runs
fail when either lane's throughput falls more than 2x below it.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

import pytest

from repro.features import message_feature_matrix, run_sharded_featurize
from repro.learned import SCORE_THRESHOLD, train_typo_model
from repro.service.bench import record_learned_detector
from repro.spamfilter.funnel import FilterFunnel, Verdict
from repro.util import SeededRng, derive_seed
from repro.util.perf import throughput
from repro.workloads.datasets import DATASET_PROFILES, build_dataset

from test_perf_baseline import (
    BENCH_PATH, REGRESSION_FACTOR, _load_bench, _save_bench)

SEED = 606
TRAIN_RANKS = 4_000
TRAIN_DATASET = 400
#: per profile; four profiles -> a 4k-message bench corpus
BENCH_DATASET = 1_000
SWEEP_RANKS = 20_000

#: the issue's acceptance bar: vectorized message scoring vs the
#: per-message funnel
MIN_MESSAGE_SPEEDUP = 5.0
#: absolute floors, ~3x under the bench box's measured rates so 25%
#: single-core timer noise cannot flake them
MIN_LEARNED_EMAILS_PER_SEC = 60_000.0
MIN_COLUMNAR_ROWS_PER_SEC = 250_000.0

FULL_RANKS = 1_000_000
#: the issue's second bar: columnar featurize+score over the full
#: Alexa-1M universe
MAX_FULL_COLUMNAR_SECONDS = 30.0


def _bench_corpus():
    """The 4k-message mixed corpus, deterministic from the bench seed."""
    root = SeededRng(derive_seed(SEED, "bench-mail"))
    emails = []
    for name, profile in DATASET_PROFILES.items():
        emails.extend(build_dataset(profile, BENCH_DATASET,
                                    root.child(name)).emails)
    return emails


def _columnar_pass(model, sweep):
    """Score every block of a sweep; returns (rows, flagged, seconds)."""
    rows = flagged = 0
    start = time.perf_counter()
    for X, _, _ in sweep.matrices():
        rows += X.shape[0]
        flagged += int((model.domain.scores(X) >= SCORE_THRESHOLD).sum())
    return rows, flagged, time.perf_counter() - start


@pytest.mark.perfsmoke
def test_learned_detector_throughput():
    start = time.perf_counter()
    model, stats = train_typo_model(SEED, ranks=TRAIN_RANKS,
                                    dataset_size=TRAIN_DATASET)
    train_seconds = time.perf_counter() - start

    # -- message lane: per-message funnel vs one matmul ---------------
    emails = _bench_corpus()
    funnel = FilterFunnel(("workplace.example",))
    start = time.perf_counter()
    results = funnel.classify_corpus(emails)
    funnel_seconds = time.perf_counter() - start

    plain = FilterFunnel(("workplace.example",), enabled_layers=())
    pairs = [(tok, plain.summarize(tok)) for tok in emails]
    start = time.perf_counter()
    scores = model.message.scores(message_feature_matrix(pairs))
    learned_seconds = time.perf_counter() - start

    # honest before fast: both detectors actually fired on this corpus
    assert len(results) == len(emails) == len(scores)
    funnel_spam = sum(r.verdict is Verdict.SPAM for r in results)
    learned_spam = int((scores >= SCORE_THRESHOLD).sum())
    assert 0 < funnel_spam < len(emails)
    assert 0 < learned_spam < len(emails)

    funnel_rate = throughput(len(emails), funnel_seconds)
    learned_rate = throughput(len(emails), learned_seconds)
    speedup = learned_rate / funnel_rate

    # -- domain lane: extraction walk, then the columnar pass ---------
    start = time.perf_counter()
    sweep = run_sharded_featurize(SEED, SWEEP_RANKS, jobs=1)
    extract_seconds = time.perf_counter() - start
    rows, flagged, columnar_seconds = _columnar_pass(model, sweep)
    assert rows == sweep.n_rows > 0
    assert 0 < flagged < rows
    columnar_rate = throughput(rows, columnar_seconds)

    print(f"\ntrain ranks={TRAIN_RANKS} ds={TRAIN_DATASET}: "
          f"{train_seconds:.2f}s  digest {stats['model_digest'][:12]}")
    print(f"message lane: funnel {funnel_rate:>10,.0f} emails/s  "
          f"learned {learned_rate:>10,.0f} emails/s  ({speedup:.1f}x)")
    print(f"domain lane:  extract {sweep.n_rows:,} rows in "
          f"{extract_seconds:.2f}s  columnar {columnar_rate:,.0f} rows/s")

    entry = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "seed": SEED,
        "train_ranks": TRAIN_RANKS,
        "train_seconds": round(train_seconds, 3),
        "model_digest": stats["model_digest"],
        "message_corpus": len(emails),
        "funnel_emails_per_sec": round(funnel_rate, 1),
        "learned_emails_per_sec": round(learned_rate, 1),
        "message_speedup": round(speedup, 2),
        "sweep_ranks": SWEEP_RANKS,
        "sweep_rows": rows,
        "extract_seconds": round(extract_seconds, 3),
        "extract_rows_per_sec": round(throughput(rows, extract_seconds), 1),
        "columnar_seconds": round(columnar_seconds, 4),
        "columnar_rows_per_sec": round(columnar_rate, 1),
    }
    section = record_learned_detector(entry, BENCH_PATH)

    # acceptance floors
    assert speedup >= MIN_MESSAGE_SPEEDUP, (
        f"vectorized message scoring only {speedup:.1f}x the per-message "
        f"funnel (floor {MIN_MESSAGE_SPEEDUP}x)")
    assert learned_rate >= MIN_LEARNED_EMAILS_PER_SEC, (
        f"message featurize+score too slow: {learned_rate:,.0f} emails/s "
        f"(floor {MIN_LEARNED_EMAILS_PER_SEC:,.0f})")
    assert columnar_rate >= MIN_COLUMNAR_ROWS_PER_SEC, (
        f"columnar domain scoring too slow: {columnar_rate:,.0f} rows/s "
        f"(floor {MIN_COLUMNAR_ROWS_PER_SEC:,.0f})")

    # trajectory gates against the recorded baseline
    baseline = section["baseline"]
    assert learned_rate >= (
        baseline["learned_emails_per_sec"] / REGRESSION_FACTOR), (
        f"message lane regressed: {learned_rate:,.0f} emails/s vs baseline "
        f"{baseline['learned_emails_per_sec']:,.0f}/s (gate "
        f"{REGRESSION_FACTOR}x) — if this slowdown is intended, delete the "
        "learned_detector section of BENCH_perf.json to re-baseline")
    assert columnar_rate >= (
        baseline["columnar_rows_per_sec"] / REGRESSION_FACTOR), (
        f"columnar lane regressed: {columnar_rate:,.0f} rows/s vs baseline "
        f"{baseline['columnar_rows_per_sec']:,.0f}/s (gate "
        f"{REGRESSION_FACTOR}x)")


@pytest.mark.slow
def test_learned_full_sweep_1m():
    """The Alexa-1M stretch point: featurize + score the full universe.

    The gate is on the **columnar** stage — the pass the resident model
    re-runs whenever weights change over already-extracted blocks — not
    on the extraction walk, which streams the lazy world once and is
    throughput-gated in the scan lane; its wall-clock is recorded here
    honestly alongside.
    """
    model, _ = train_typo_model(SEED, ranks=TRAIN_RANKS,
                                dataset_size=TRAIN_DATASET)
    start = time.perf_counter()
    sweep = run_sharded_featurize(SEED, FULL_RANKS, jobs=1)
    extract_seconds = time.perf_counter() - start
    rows, flagged, columnar_seconds = _columnar_pass(model, sweep)
    assert rows == sweep.n_rows > 2_000_000
    assert 0 < flagged < rows

    print(f"\n{FULL_RANKS:>9,} ranks: extract {extract_seconds:6.1f}s "
          f"({rows:,} rows)  columnar {columnar_seconds:5.2f}s "
          f"({throughput(rows, columnar_seconds):,.0f} rows/s)")

    bench = _load_bench()
    section = bench.setdefault("learned_detector", {})
    section["full_sweep"] = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "seed": SEED,
        "ranks": FULL_RANKS,
        "rows": rows,
        "flagged": flagged,
        "extract_seconds": round(extract_seconds, 3),
        "columnar_seconds": round(columnar_seconds, 3),
        "columnar_rows_per_sec": round(
            throughput(rows, columnar_seconds), 1),
        "sweep_digest": sweep.digest(),
    }
    _save_bench(bench)

    assert columnar_seconds < MAX_FULL_COLUMNAR_SECONDS, (
        f"full-universe columnar featurize+score took "
        f"{columnar_seconds:.1f}s (ceiling {MAX_FULL_COLUMNAR_SECONDS}s)")
