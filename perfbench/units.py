"""The four workloads, each as a repeatable unit of identical work.

A workload object is built once per set-up; then, per unit:

* :meth:`prepare` (untimed) resets every process-wide cache and builds
  the fresh state the unit needs;
* :meth:`run` (timed) is the unit itself, calling the program only
  through its public API; ``sweep`` and ``serve`` call ``self.split``
  between requests, which cuts the timed interval into segments, each
  normalised by its own probes, and the studies are cut by a timer
  every ``sample_every`` seconds;
* :meth:`inspect` (untimed) turns the run's outputs into a
  :class:`UnitOutcome` whose ``counts`` must repeat exactly across
  units and runs.

:meth:`final_checks` runs once after the timed loop and returns the
descriptions of any failed output checks.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import core
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.delta import ChurnSchedule
from repro.ecosystem.world import WorldModel
from repro.experiment import (
    ExperimentConfig,
    RecordDigestSink,
    StudyRunner,
    record_multiset_digest,
    record_stream_digest,
)
from repro.features import domains as feature_domains
from repro.features.schema import DOMAIN_FEATURES
from repro.learned.train import train_lane
from repro.service import (
    LookupWorkload,
    RiskEngine,
    TypoRiskIndex,
    WorkloadMix,
)
from repro.util.perf import PerfRegistry

from harness import reset_caches

#: spam volume of both study workloads (ham streams run at full scale)
STUDY_SPAM_SCALE = 5e-5
#: day cadence of study_durable's checkpoints: ~11 saves over the
#: 212-day window, which makes saving about half of the unit
CHECKPOINT_EVERY_DAYS = 21
#: both studies: period (s) of the timer that splits a unit, which is
#: one StudyRunner.run call
STUDY_SAMPLE_EVERY_S = 0.2

#: sweep: WINDOWS windows of WINDOW_RANKS ranks, strided over 1..1M
SWEEP_MAX_RANK = 1_000_000
SWEEP_WINDOWS = 8
SWEEP_WINDOW_RANKS = 500
#: sweep: windows per timed segment (0.05-0.5 s each)
SWEEP_SEGMENT_WINDOWS = 1

#: serve: a 100k-rank universe, one client, DAYS churn days per unit
SERVE_MAX_RANK = 100_000
SERVE_POOL_SIZE = 4096
SERVE_LOOKUPS_PER_DAY = 2_500
SERVE_DAYS = 2
#: lookups per timed segment (~0.2 s)
SERVE_SEGMENT_LOOKUPS = 250
#: typo-heavy lookup mix.  Memo hits and clean/junk misses take 1-50 us,
#: typo misses (candidate retrieval) 0.3-3 ms; with this mix and pool
#: the fast requests are ~30% of the stream (memo hits ~13%), so p50
#: sits inside the retrieval mode.  A memo-hit p50 (~0.4 us, of which a perf_counter
#: pair is 0.13-0.24 us) moved up to 2x between units of one process on
#: the tuning host and could not be made steady.  p99 is the slowest
#: 1% of 5,000 lookups: with 2,000 a unit's p99 varied twice as much.
SERVE_MIX = WorkloadMix(clean=0.10, gtypo=0.50, ctypo=0.30, junk=0.10)
#: distinct pool queries re-answered by the brute-force reference, taken
#: from the registered-typo pool, which exercises every lookup layer
#: (each costs a DL scan over all 100k targets, ~6 s on the tuning host)
SERVE_PARITY_SAMPLE = 1


@dataclass
class UnitOutcome:
    """What one unit did: ops, repeatable counts, request latencies."""

    ops: int
    counts: Dict[str, object]
    #: per-request wall seconds, raw (a lookup for serve, a rank window
    #: for sweep); None when the whole unit is the one request
    latencies: Optional[List[float]] = None
    #: how many of ``latencies`` fall in each timed segment, in order;
    #: None when the unit did not split its interval
    latency_segments: Optional[List[int]] = None
    #: bytes of artifacts the unit left in the temp directory
    bytes_written: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


def _no_split() -> None:
    """The default ``split``: the unit runs as one timed segment."""


def _segment_sizes(total: int, size: int) -> List[int]:
    """Sizes of ``total`` requests cut into segments of ``size``."""
    return [min(size, total - low) for low in range(0, total, size)]


def _kernel_totals() -> Dict[str, int]:
    hits = misses = 0
    for stats in core.kernel_cache_stats().values():
        hits += stats["hits"]
        misses += stats["misses"]
    return {"hits": hits, "misses": misses}


class StudyWorkload:
    """``study``: the seven-month batch study, the paper's headline run."""

    name = "study"
    sample_every = STUDY_SAMPLE_EVERY_S

    def __init__(self, seed: int, tmpdir: Path) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.config = ExperimentConfig(seed=seed,
                                       spam_scale=STUDY_SPAM_SCALE)

    def setup(self) -> None:
        """Nothing is shared between units: each builds its own world."""

    def prepare(self) -> None:
        reset_caches()

    def run(self, perf: Optional[PerfRegistry] = None):
        return StudyRunner(self.config).run()

    def inspect(self, results) -> UnitOutcome:
        counters = results.perf["counters"]
        return UnitOutcome(ops=results.sent_count, counts={
            "emails.sent": results.sent_count,
            "records": counters["records"],
            "textcache.hits": counters["classify.text_cache_hits"],
            "textcache.misses": counters["classify.text_cache_misses"],
            "record_stream_digest": record_stream_digest(results.records),
        }, extra={"perf_timers": results.perf["timers"]})

    def final_checks(self) -> List[str]:
        return []


class StudyDurableWorkload(StudyWorkload):
    """``study_durable``: the same study, bounded streaming classify, a
    record-digest sink and a checkpoint every few days."""

    name = "study_durable"

    def __init__(self, seed: int, tmpdir: Path) -> None:
        super().__init__(seed, tmpdir)
        self.config = ExperimentConfig(seed=seed,
                                       spam_scale=STUDY_SPAM_SCALE,
                                       streaming_classify=True,
                                       retain_messages=False)
        self.checkpoint = tmpdir / "study.ckpt.json"
        self.sink: Optional[RecordDigestSink] = None
        self.digest: Optional[str] = None

    def prepare(self) -> None:
        reset_caches()
        # an existing checkpoint would make the run resume, not start over
        self.checkpoint.unlink(missing_ok=True)
        self.sink = RecordDigestSink()

    def run(self, perf: Optional[PerfRegistry] = None):
        return StudyRunner(self.config).run(
            record_sink=self.sink, checkpoint_path=self.checkpoint,
            checkpoint_interval=CHECKPOINT_EVERY_DAYS)

    def inspect(self, results) -> UnitOutcome:
        counters = results.perf["counters"]
        durability = results.robustness["durability"]
        self.digest = self.sink.digest()
        return UnitOutcome(ops=results.sent_count, counts={
            "emails.sent": results.sent_count,
            "records": counters["records"],
            "sink.records": self.sink.count,
            "textcache.hits": counters["classify.text_cache_hits"],
            "textcache.misses": counters["classify.text_cache_misses"],
            "checkpoints_written": durability["checkpoints_written"],
            "sink_digest": self.digest,
        }, bytes_written=self.checkpoint.stat().st_size,
            extra={"perf_timers": results.perf["timers"]})

    def final_checks(self) -> List[str]:
        """The sink digest must equal the batch study's multiset digest."""
        reset_caches()
        batch = StudyRunner(ExperimentConfig(
            seed=self.seed, spam_scale=STUDY_SPAM_SCALE)).run()
        expected = record_multiset_digest(batch.records)
        if self.digest != expected:
            return [f"study_durable sink digest {self.digest} != batch "
                    f"record_multiset_digest {expected}"]
        return []


class SweepWorkload:
    """``sweep``: DL-1 scan + featurize + domain-lane scoring over fixed
    strided rank windows of the 1M universe."""

    name = "sweep"

    def __init__(self, seed: int, tmpdir: Path) -> None:
        self.seed = seed
        stride = SWEEP_MAX_RANK // SWEEP_WINDOWS
        self.starts = [1 + i * stride for i in range(SWEEP_WINDOWS)]
        self.lane = None
        #: closes a timed segment (``HostClock.split``); set by the runner
        self.split: Callable[[], None] = _no_split

    def setup(self) -> None:
        """Train the domain lane on the first window's rows."""
        world = WorldModel(self.seed)
        sweep = feature_domains.featurize_domains(
            self.seed, 1, 1 + SWEEP_WINDOW_RANKS, max_rank=SWEEP_MAX_RANK,
            world=world)
        import numpy as np

        parts = list(sweep.matrices())
        X = np.vstack([X for X, _, _ in parts])
        y = np.concatenate([y for _, y, _ in parts])
        self.lane = train_lane(X, y, self.seed, "domain", DOMAIN_FEATURES)

    def prepare(self) -> None:
        reset_caches()

    def run(self, perf: Optional[PerfRegistry] = None):
        world = WorldModel(self.seed)
        aggregates = ScanAggregates()
        sweeps = []
        scores = []
        latencies = []
        clock = time.perf_counter
        for start in self.starts:
            begin = clock()
            stop = start + SWEEP_WINDOW_RANKS
            world.scan_ranks(start, stop, max_rank=SWEEP_MAX_RANK,
                             aggregates=aggregates, perf=perf)
            sweep = feature_domains.featurize_domains(
                self.seed, start, stop, max_rank=SWEEP_MAX_RANK,
                world=world, perf=perf)
            for X, _, _ in sweep.matrices():
                scores.append(self.lane.scores(X))
            sweeps.append(sweep)
            latencies.append(clock() - begin)
            if len(latencies) % SWEEP_SEGMENT_WINDOWS == 0 \
                    and len(latencies) < len(self.starts):
                self.split()
        return aggregates, sweeps, scores, latencies

    def inspect(self, outputs) -> UnitOutcome:
        aggregates, sweeps, scores, latencies = outputs
        sweep_digest = hashlib.sha256()
        for sweep in sweeps:
            sweep_digest.update(sweep.digest().encode())
        score_digest = hashlib.sha256()
        for block in scores:
            score_digest.update(block.tobytes())
        return UnitOutcome(
            ops=SWEEP_WINDOWS * SWEEP_WINDOW_RANKS,
            counts={
                "sweep.rows": sum(s.n_rows for s in sweeps),
                "sweep.rows_excluded": sum(s.n_excluded for s in sweeps),
                "sweep.ctypos_registered": aggregates.registered_count,
                "sweep.gtypos_generated": aggregates.generated_count,
                "kernel_cache": _kernel_totals(),
                "scan_digest": aggregates.digest(),
                "sweep_digest": sweep_digest.hexdigest(),
                "score_digest": score_digest.hexdigest(),
            },
            latencies=latencies,
            latency_segments=_segment_sizes(len(latencies),
                                            SWEEP_SEGMENT_WINDOWS))

    def final_checks(self) -> List[str]:
        return []


class ServeWorkload:
    """``serve``: a resident RiskEngine answering a closed-loop lookup
    stream, hot-swapping to the next churn day at every day boundary."""

    name = "serve"

    def __init__(self, seed: int, tmpdir: Path) -> None:
        self.seed = seed
        self.artifact = tmpdir / "risk-index.json"
        self.queries: List[str] = []
        self.pool: List[str] = []
        self.schedule = ChurnSchedule(seed, SERVE_MAX_RANK)
        self.engine: Optional[RiskEngine] = None
        #: closes a timed segment (``HostClock.split``); set by the runner
        self.split: Callable[[], None] = _no_split

    def setup(self) -> None:
        """Generate the lookup stream (pool + seeded draws)."""
        workload = LookupWorkload(self.seed, SERVE_MAX_RANK,
                                  pool_size=SERVE_POOL_SIZE, mix=SERVE_MIX)
        self.pool = workload.pool_entries()
        self.queries = list(workload.queries(
            SERVE_DAYS * SERVE_LOOKUPS_PER_DAY))

    def prepare(self) -> None:
        reset_caches()
        self.engine = RiskEngine(TypoRiskIndex(self.seed, SERVE_MAX_RANK))

    def run(self, perf: Optional[PerfRegistry] = None):
        engine = self.engine
        queries = self.queries
        clock = time.perf_counter
        latencies = [0.0] * len(queries)
        verdicts = [None] * len(queries)
        memo = {"hits": 0, "misses": 0}
        changed = 0
        failed = 0
        for day in range(1, SERVE_DAYS + 1):
            changed += engine.hot_swap(self.schedule, day,
                                       artifact_path=str(self.artifact))
            lookup = engine.lookup
            for i in range((day - 1) * SERVE_LOOKUPS_PER_DAY,
                           day * SERVE_LOOKUPS_PER_DAY):
                query = queries[i]
                start = clock()
                try:
                    verdict = lookup(query)
                except Exception:       # a failed lookup is a failed op
                    verdict = None
                latencies[i] = clock() - start
                if verdict is None:
                    failed += 1
                verdicts[i] = verdict
                if (i + 1) % SERVE_SEGMENT_LOOKUPS == 0 \
                        and i + 1 < len(queries):
                    self.split()
            # the memo counters reset at every swap: fold each day's in
            stats = engine.cache_stats()
            memo["hits"] += stats["hits"]
            memo["misses"] += stats["misses"]
        return latencies, verdicts, memo, changed, failed

    def inspect(self, outputs) -> UnitOutcome:
        latencies, verdicts, memo, changed, failed = outputs
        digest = hashlib.sha256()
        for verdict in verdicts:
            if verdict is not None:
                digest.update(f"{verdict.verdict}|{verdict.tier}|"
                              f"{verdict.action}|{verdict.source}\n".encode())
        return UnitOutcome(
            ops=len(self.queries),
            counts={
                "service.lookups": len(self.queries),
                "service.failed_lookups": failed,
                "service.memo_hits": memo["hits"],
                "service.memo_misses": memo["misses"],
                "service.ranks_changed": changed,
                "kernel_cache": _kernel_totals(),
                "verdict_digest": digest.hexdigest(),
            },
            latencies=latencies,
            latency_segments=_segment_sizes(len(latencies),
                                            SERVE_SEGMENT_LOOKUPS),
            bytes_written=self.artifact.stat().st_size)

    def final_checks(self) -> List[str]:
        """Brute-force parity on a fixed pool sample, then reload the
        last saved artifact and compare it with the published index."""
        failures = []
        engine = self.engine
        # pool_entries() lists the clean, typo, registered-typo and junk
        # pools in that order: start at the registered-typo quarter
        start = len(self.pool) // 2
        for query in self.pool[start:start + SERVE_PARITY_SAMPLE]:
            fast = engine.lookup(query).canonical_json()
            slow = engine.lookup_bruteforce(query).canonical_json()
            if fast != slow:
                failures.append(f"serve verdict for {query!r} differs from "
                                f"lookup_bruteforce: {fast} != {slow}")
        reloaded = TypoRiskIndex.load(self.artifact)
        if reloaded.canonical_dict() != engine.index.canonical_dict():
            failures.append("reloaded risk-index artifact differs from the "
                            "published generation")
        return failures


WORKLOADS = {cls.name: cls for cls in (
    StudyWorkload, StudyDurableWorkload, SweepWorkload, ServeWorkload)}
