"""Parallel multi-seed study engine.

One simulated seven-month study is a single draw from the generative
world; the robustness sweeps, the ablation benches, and the calibration
workflows all need *many* draws.  This module fans independent
:class:`StudyRunner` configurations out over worker processes:

* every run is fully determined by its :class:`ExperimentConfig` (seed
  included), so results are identical whether computed serially or on a
  pool — :func:`record_stream_digest` makes that property testable;
* workers return :class:`StudySample`, a picklable projection of
  :class:`~repro.experiment.runner.StudyResults` — the live
  infrastructure (SMTP servers holding policy closures) never crosses a
  process boundary;
* child seeds come from :func:`~repro.util.rand.derive_seed`, so a
  parallel sweep's seed list is itself reproducible from one base seed.

On machines without usable worker processes (or for ``jobs=None``)
everything degrades to the serial path with the same outputs.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.analysis.records import CollectedRecord
from repro.core.targets import StudyCorpus
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.internet import InternetConfig
from repro.experiment.config import ExperimentConfig
from repro.experiment.runner import StudyResults, StudyRunner
from repro.faultsim.plan import FaultPlan, InjectedWorkerCrash
from repro.util.perf import PerfRegistry
# parallel_map and the fallback counter moved to repro.util.pool (the
# classify pipeline needs them without importing the study engine);
# re-exported here so existing imports keep working
from repro.util.pool import (                                    # noqa: F401
    _note_pool_fallback,
    parallel_map,
    pool_fallback_count,
)
from repro.util.artifact import ArtifactFormat, load_artifact, save_artifact
from repro.util.errors import CheckpointMismatchError
from repro.util.rand import derive_seed
from repro.util.simtime import CollectionWindow

__all__ = [
    "StudySample",
    "run_study_sample",
    "run_study_samples",
    "derive_child_seeds",
    "parallel_map",
    "pool_fallback_count",
    "record_stream_digest",
    "record_content_key",
    "record_content_digest",
    "record_multiset_digest",
    "RecordDigestSink",
    "ScanShardTask",
    "ScanShard",
    "run_scan_shard",
    "fold_shard_perf",
    "partition_ranks",
    "run_sharded_scan",
    "ShardRetryPolicy",
    "ShardOutcome",
    "ResilientScanResult",
    "SCAN_CHECKPOINT_FORMAT",
    "ScanCheckpoint",
    "run_resilient_scan",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class StudySample:
    """The picklable cross-process view of one completed study run.

    Everything the sweep/analysis layers consume survives the trip:
    records, corpus, window, counts, and the perf snapshot.  The live
    infrastructure objects stay behind in the worker.
    """

    config: ExperimentConfig
    corpus: StudyCorpus
    window: CollectionWindow
    records: Tuple[CollectedRecord, ...]
    malicious_hashes: FrozenSet[str]
    sent_count: int
    delivered_count: int
    funnel_correct: int
    funnel_total: int
    perf: Optional[Dict] = None
    robustness: Optional[Dict] = None

    @property
    def seed(self) -> int:
        return self.config.seed

    def true_typo_records(self) -> List[CollectedRecord]:
        """The records that survived every filter layer."""
        return [r for r in self.records if r.is_true_typo]

    def funnel_accuracy(self) -> Tuple[int, int]:
        """(correct, total) verdicts vs. ground truth, as computed in-run."""
        return self.funnel_correct, self.funnel_total

    def record_digest(self) -> str:
        """Content digest of the record stream (for determinism checks)."""
        return record_stream_digest(self.records)


def sample_from_results(results: StudyResults) -> StudySample:
    """Project live :class:`StudyResults` onto the picklable sample."""
    correct, total = results.funnel_accuracy()
    return StudySample(
        config=results.config,
        corpus=results.corpus,
        window=results.window,
        records=tuple(results.records),
        malicious_hashes=frozenset(results.malicious_hashes),
        sent_count=results.sent_count,
        delivered_count=results.delivered_count,
        funnel_correct=correct,
        funnel_total=total,
        perf=results.perf,
        robustness=results.robustness,
    )


def run_study_sample(config: ExperimentConfig) -> StudySample:
    """Run one full study and return its picklable sample.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can ship
    it to workers by name.
    """
    return sample_from_results(StudyRunner(config).run())


def derive_child_seeds(base_seed: int, count: int,
                       name: str = "parallel-study") -> List[int]:
    """``count`` deterministic, distinct child seeds of ``base_seed``.

    Uses the same SHA-256 derivation as :meth:`SeededRng.child`, so a
    sweep's whole seed list is reproducible from (base_seed, name).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [derive_seed(base_seed, f"{name}-{index}")
            for index in range(count)]


def run_study_samples(configs: Sequence[ExperimentConfig],
                      jobs: Optional[int] = None) -> List[StudySample]:
    """Run one study per config, optionally on a process pool.

    Results come back in input order and are identical to the serial
    path: each run is a pure function of its config.  If the pool broke
    and the engine degraded to serial, every returned sample's perf
    snapshot carries a ``parallel.pool_fallback`` counter.
    """
    perf = PerfRegistry()
    samples = parallel_map(run_study_sample, configs, jobs=jobs, perf=perf)
    fallbacks = perf.counters.get("parallel.pool_fallback", 0)
    if fallbacks:
        for sample in samples:
            if sample.perf is not None:
                sample.perf.setdefault("counters", {})[
                    "parallel.pool_fallback"] = fallbacks
    return samples


# -- the sharded ecosystem scan ----------------------------------------------
#
# A paper-scale DL-1 scan is embarrassingly parallel over Alexa ranks:
# every per-rank stream of the lazy world model is keyed by
# ``derive_seed(seed, f"...-{rank}")``, so a worker needs nothing from its
# neighbours.  Workers stream each rank's registered-candidate states
# through a generator (never a list), fold them into
# :class:`~repro.ecosystem.aggregates.ScanAggregates`, and ship only those
# counts back; the merged digest is byte-identical to the serial scan's.


@dataclass(frozen=True)
class ScanShardTask:
    """One worker's share of a sharded ecosystem scan (picklable)."""

    seed: int
    start_rank: int            # inclusive
    stop_rank: int             # exclusive
    #: size of the whole scan's target universe — must be the same for
    #: every shard, or target-collision skipping diverges from serial
    max_rank: int
    config: Optional[InternetConfig] = None
    exclude: Tuple[str, ...] = ()
    #: chaos schedule; crash/hang specs whose rank falls in this shard's
    #: range fire on matching attempts (see :meth:`FaultPlan.crash_spec_for_shard`)
    fault_plan: Optional[FaultPlan] = None
    #: 1-based retry attempt — requeued shards run with ``attempt+1``, so
    #: a spec with ``failures=N`` kills attempts 1..N and lets N+1 pass
    attempt: int = 1
    #: churn generations of the evolved world, as sorted (rank, generation)
    #: pairs (a tuple so the task stays hashable/picklable); empty means
    #: the pristine day-0 world
    churn: Tuple[Tuple[int, int], ...] = ()
    #: collect per-phase wall-clock (shard setup vs shard work, and the
    #: scan loop's setup/draw/probe split) into ``ScanShard.perf``
    collect_perf: bool = False


@dataclass(frozen=True)
class ScanShard:
    """A completed shard: its rank range and streaming aggregates."""

    start_rank: int
    stop_rank: int
    aggregates: ScanAggregates
    #: :meth:`PerfRegistry.snapshot` of the shard's phase timers, when
    #: the task asked for them (picklable plain dicts)
    perf: Optional[Dict] = None


def run_scan_shard(task: ScanShardTask) -> ScanShard:
    """Scan one rank range of the lazy world (module-level for pickling)."""
    from repro.ecosystem.world import WorldModel

    if task.fault_plan is not None:
        spec = task.fault_plan.crash_spec_for_shard(
            task.start_rank, task.stop_rank, task.attempt)
        if spec is not None:
            if spec.mode == "hang":
                time.sleep(spec.hang_seconds)
            else:
                raise InjectedWorkerCrash(
                    f"injected crash in shard [{task.start_rank},"
                    f"{task.stop_rank}) attempt {task.attempt}")
    perf = PerfRegistry() if task.collect_perf else None
    setup_start = time.perf_counter()
    world = WorldModel(task.seed, task.config,
                       churn=dict(task.churn) if task.churn else None)
    setup_seconds = time.perf_counter() - setup_start
    work_start = time.perf_counter()
    aggregates = world.scan_ranks(task.start_rank, task.stop_rank,
                                  max_rank=task.max_rank,
                                  exclude=task.exclude, perf=perf)
    if perf is not None:
        perf.add_seconds("scan.shard_setup_seconds", setup_seconds)
        perf.add_seconds("scan.shard_work_seconds",
                         time.perf_counter() - work_start)
    return ScanShard(start_rank=task.start_rank, stop_rank=task.stop_rank,
                     aggregates=aggregates,
                     perf=perf.snapshot() if perf is not None else None)


def fold_shard_perf(perf: Optional[PerfRegistry],
                    shard_perf: Optional[Dict]) -> None:
    """Fold one shard's perf snapshot into the driver-side registry."""
    if perf is None or not shard_perf:
        return
    for name, stat in shard_perf.get("timers", {}).items():
        perf.add_seconds(name, stat["seconds"], calls=stat["calls"])
    for name, amount in shard_perf.get("counters", {}).items():
        perf.count(name, amount)


def partition_ranks(max_rank: int,
                    shards: int) -> List[Tuple[int, int]]:
    """Split ranks ``1..max_rank`` into contiguous half-open ranges.

    Every rank lands in exactly one ``[start, stop)`` range (ranks are
    shard-atomic); ranges differ in size by at most one.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, max_rank)
    base, extra = divmod(max_rank, shards)
    ranges: List[Tuple[int, int]] = []
    start = 1
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def run_sharded_scan(seed: int, max_rank: int, jobs: Optional[int] = None,
                     config: Optional[InternetConfig] = None,
                     exclude: Sequence[str] = (),
                     churn: Sequence[Tuple[int, int]] = (),
                     perf: Optional[PerfRegistry] = None) -> ScanAggregates:
    """Scan ranks ``1..max_rank`` of the lazy world, fanned over workers.

    ``jobs=None`` or ``1`` runs serially in-process; either way the
    merged aggregates (and their digest) are identical, which the shard
    determinism tests pin down.  ``churn`` evolves the world by the
    given (rank, generation) pairs (see :mod:`repro.ecosystem.delta`);
    ``perf`` collects the per-phase timers (setup/draw/probe per shard,
    plus ``scan.merge_seconds`` for the fold) into one registry.
    """
    shard_count = jobs if jobs and jobs > 1 else 1
    tasks = [ScanShardTask(seed=seed, start_rank=start, stop_rank=stop,
                           max_rank=max_rank, config=config,
                           exclude=tuple(exclude),
                           churn=tuple(churn),
                           collect_perf=perf is not None)
             for start, stop in partition_ranks(max_rank, shard_count)]
    shards = parallel_map(run_scan_shard, tasks, jobs=jobs)
    merge_start = time.perf_counter()
    merged = ScanAggregates()
    for shard in shards:
        merged.merge(shard.aggregates)
    merge_seconds = time.perf_counter() - merge_start
    if perf is not None:
        for shard in shards:
            fold_shard_perf(perf, shard.perf)
        perf.add_seconds("scan.merge_seconds", merge_seconds)
    return merged


# -- self-healing sharded scans ----------------------------------------------
#
# ``run_sharded_scan`` assumes every worker survives; at paper scale (days
# of wall-clock over millions of ranks) that assumption fails.  The
# resilient driver below treats each shard as a retryable unit of work:
# crashed or timed-out shards are requeued with backoff, completed shards
# are checkpointed as canonical :class:`ScanAggregates` dicts so an
# interrupted run resumes where it died, and when retries are exhausted
# the result is explicitly *degraded* — it names the exact unscanned rank
# ranges instead of silently returning partial counts.


@dataclass(frozen=True)
class ShardRetryPolicy:
    """Retry/timeout discipline for one sharded scan.

    ``shard_timeout_seconds=None`` disables the per-shard timeout (hung
    workers are then indistinguishable from slow ones).  Backoff between
    attempts is real wall-clock sleep — keep it at 0 in tests.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    shard_timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if (self.shard_timeout_seconds is not None
                and self.shard_timeout_seconds <= 0):
            raise ValueError("shard_timeout_seconds must be positive")

    def delay_before(self, attempt: int) -> float:
        """Seconds to back off before retry ``attempt`` (2-based)."""
        if self.backoff_seconds <= 0 or attempt <= 1:
            return 0.0
        return self.backoff_seconds * self.backoff_factor ** (attempt - 2)


@dataclass(frozen=True)
class ShardOutcome:
    """How one shard's rank range ended up: scanned, resumed, or lost."""

    start_rank: int
    stop_rank: int
    status: str                # "completed" | "resumed" | "failed"
    attempts: int              # 0 for checkpoint-resumed shards
    error: Optional[str] = None


@dataclass(frozen=True)
class ResilientScanResult:
    """A completed (possibly degraded) self-healing sharded scan.

    ``degraded`` is True iff any shard exhausted its retries; the merged
    ``aggregates`` then cover only the scanned ranges, and
    ``unscanned_ranges`` names the holes exactly so a follow-up run (or
    a checkpoint resume) can fill them.
    """

    aggregates: ScanAggregates
    outcomes: Tuple[ShardOutcome, ...]
    degraded: bool
    unscanned_ranges: Tuple[Tuple[int, int], ...]
    attempts_total: int
    plan_digest: Optional[str] = None

    def summary_lines(self) -> List[str]:
        """Human-readable robustness report for CLI/report output."""
        completed = sum(1 for o in self.outcomes if o.status == "completed")
        resumed = sum(1 for o in self.outcomes if o.status == "resumed")
        lines = [
            f"shards: {len(self.outcomes)} "
            f"(completed {completed}, resumed {resumed}, "
            f"failed {len(self.unscanned_ranges)})",
            f"attempts: {self.attempts_total}",
        ]
        if self.plan_digest is not None:
            lines.append(f"fault plan digest: {self.plan_digest}")
        if self.degraded:
            ranges = ", ".join(f"[{start},{stop})"
                               for start, stop in self.unscanned_ranges)
            lines.append(f"DEGRADED — unscanned rank ranges: {ranges}")
        else:
            lines.append("complete — every rank range scanned")
        return lines


#: scan-checkpoint artifact tag; files from before the envelope carried
#: no tag at all and are refused as a foreign format
SCAN_CHECKPOINT_FORMAT = "repro-scan-checkpoint@1"

_ARTIFACT = ArtifactFormat(SCAN_CHECKPOINT_FORMAT, "scan checkpoint",
                           "delete it and rescan")


class ScanCheckpoint:
    """Durable shard-level progress for one (seed, max_rank) scan.

    One artifact envelope maps ``"start-stop"`` range keys to canonical
    :class:`ScanAggregates` dicts.  Writes are atomic, and the canonical
    round-trip preserves digests exactly, so a resumed scan is
    byte-identical to an uninterrupted one.  Loading a checkpoint
    written for a different seed or universe size is an error, not a
    silent wrong answer, and so is a shard key outside
    ``1..max_rank + 1``.
    """

    def __init__(self, path: Union[str, Path], seed: int,
                 max_rank: int) -> None:
        self.path = Path(path)
        self.seed = seed
        self.max_rank = max_rank
        self._shards: Dict[Tuple[int, int], ScanAggregates] = (
            load_artifact(self.path, _ARTIFACT, self._decode)
            if self.path.exists() else {})

    def _decode(self, payload: Dict) -> Dict[Tuple[int, int], ScanAggregates]:
        if (payload["seed"] != self.seed
                or payload["max_rank"] != self.max_rank):
            raise CheckpointMismatchError(
                f"checkpoint {self.path} was written for "
                f"seed={payload['seed']} max_rank={payload['max_rank']}, "
                f"not seed={self.seed} max_rank={self.max_rank}")
        shards = {}
        for key, aggregates in payload["shards"].items():
            start_text, _, stop_text = key.partition("-")
            start, stop = int(start_text), int(stop_text)
            if not 1 <= start < stop <= self.max_rank + 1:
                raise ValueError(f"shard key {key!r} lies outside ranks "
                                 f"1..{self.max_rank}")
            shards[(start, stop)] = ScanAggregates.from_canonical_dict(
                aggregates)
        return shards

    def get(self, start_rank: int, stop_rank: int
            ) -> Optional[ScanAggregates]:
        return self._shards.get((start_rank, stop_rank))

    def record(self, start_rank: int, stop_rank: int,
               aggregates: ScanAggregates) -> None:
        """Persist one completed shard (atomic rewrite of the file)."""
        self._shards[(start_rank, stop_rank)] = aggregates
        save_artifact(self.path, {
            "format": SCAN_CHECKPOINT_FORMAT,
            "seed": self.seed,
            "max_rank": self.max_rank,
            "shards": {f"{start}-{stop}": shard.canonical_dict()
                       for (start, stop), shard
                       in sorted(self._shards.items())},
        })

    @property
    def completed_count(self) -> int:
        return len(self._shards)


def _map_shards_guarded(tasks: Sequence[ScanShardTask],
                        jobs: Optional[int],
                        retry: ShardRetryPolicy,
                        perf: Optional[PerfRegistry]
                        ) -> List[Union[ScanShard, str]]:
    """Run every task, trapping per-task failures as error strings.

    Unlike :func:`parallel_map`, one crashing/hanging shard never takes
    the round down: its slot holds the error text and the caller decides
    whether to requeue.  Pool-level breakage (unpicklable work, sandbox
    without workers) still degrades loudly to the serial path.
    """
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return _serial_shards_guarded(tasks)
    try:
        results: List[Union[ScanShard, str]] = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [pool.submit(run_scan_shard, task) for task in tasks]
            for future in futures:
                try:
                    results.append(
                        future.result(timeout=retry.shard_timeout_seconds))
                except FutureTimeoutError:
                    future.cancel()
                    results.append(
                        f"shard timed out after "
                        f"{retry.shard_timeout_seconds}s")
                except BrokenProcessPool:
                    raise
                except Exception as error:
                    results.append(f"{type(error).__name__}: {error}")
        return results
    except (pickle.PicklingError, AttributeError, BrokenProcessPool,
            OSError) as error:
        _note_pool_fallback(error, perf)
        return _serial_shards_guarded(tasks)


def _serial_shards_guarded(tasks: Sequence[ScanShardTask]
                           ) -> List[Union[ScanShard, str]]:
    results: List[Union[ScanShard, str]] = []
    for task in tasks:
        try:
            results.append(run_scan_shard(task))
        except Exception as error:
            results.append(f"{type(error).__name__}: {error}")
    return results


def run_resilient_scan(seed: int, max_rank: int, jobs: Optional[int] = None,
                       config: Optional[InternetConfig] = None,
                       exclude: Sequence[str] = (),
                       fault_plan: Optional[FaultPlan] = None,
                       retry: Optional[ShardRetryPolicy] = None,
                       checkpoint_path: Optional[Union[str, Path]] = None,
                       perf: Optional[PerfRegistry] = None
                       ) -> ResilientScanResult:
    """Self-healing sharded scan: crashed shards requeue, progress persists.

    The happy path merges to the same digest as :func:`run_sharded_scan`
    (and the serial scan) for any jobs count — shard work is a pure
    function of its rank range.  Injected crashes/hangs from
    ``fault_plan`` (and real worker failures) are retried up to
    ``retry.max_attempts`` with optional backoff; shards that still fail
    are reported as explicit unscanned ranges rather than silently
    missing counts.  With ``checkpoint_path``, completed shards are
    written through a :class:`ScanCheckpoint` and skipped on re-runs.
    """
    retry = retry if retry is not None else ShardRetryPolicy()
    shard_count = jobs if jobs and jobs > 1 else 1
    ranges = partition_ranks(max_rank, shard_count)
    checkpoint = (ScanCheckpoint(checkpoint_path, seed, max_rank)
                  if checkpoint_path is not None else None)

    completed: Dict[Tuple[int, int], ScanAggregates] = {}
    resumed: set = set()
    attempts_made: Dict[Tuple[int, int], int] = {}
    errors: Dict[Tuple[int, int], str] = {}

    pending: List[Tuple[int, int, int]] = []   # (start, stop, attempt)
    for start, stop in ranges:
        cached = checkpoint.get(start, stop) if checkpoint else None
        if cached is not None:
            completed[(start, stop)] = cached
            resumed.add((start, stop))
            attempts_made[(start, stop)] = 0
        else:
            pending.append((start, stop, 1))

    while pending:
        for _, _, attempt in pending:
            delay = retry.delay_before(attempt)
            if delay > 0:
                time.sleep(delay)
                break   # one backoff per round, not per shard
        tasks = [ScanShardTask(seed=seed, start_rank=start, stop_rank=stop,
                               max_rank=max_rank, config=config,
                               exclude=tuple(exclude),
                               fault_plan=fault_plan, attempt=attempt,
                               collect_perf=perf is not None)
                 for start, stop, attempt in pending]
        results = _map_shards_guarded(tasks, jobs, retry, perf)
        requeued: List[Tuple[int, int, int]] = []
        for task, result in zip(tasks, results):
            key = (task.start_rank, task.stop_rank)
            attempts_made[key] = task.attempt
            if isinstance(result, ScanShard):
                completed[key] = result.aggregates
                fold_shard_perf(perf, result.perf)
                if checkpoint is not None:
                    checkpoint.record(task.start_rank, task.stop_rank,
                                      result.aggregates)
            elif task.attempt < retry.max_attempts:
                if perf is not None:
                    perf.count("scan.shard_retries")
                requeued.append((task.start_rank, task.stop_rank,
                                 task.attempt + 1))
            else:
                errors[key] = result
        pending = requeued

    merged = ScanAggregates()
    outcomes: List[ShardOutcome] = []
    unscanned: List[Tuple[int, int]] = []
    for start, stop in ranges:
        key = (start, stop)
        if key in completed:
            merged.merge(completed[key])
            status = "resumed" if key in resumed else "completed"
            outcomes.append(ShardOutcome(start, stop, status,
                                         attempts_made[key]))
        else:
            unscanned.append(key)
            outcomes.append(ShardOutcome(start, stop, "failed",
                                         attempts_made[key],
                                         error=errors.get(key)))
    if perf is not None and unscanned:
        perf.count("scan.unscanned_ranges", len(unscanned))
    return ResilientScanResult(
        aggregates=merged,
        outcomes=tuple(outcomes),
        degraded=bool(unscanned),
        unscanned_ranges=tuple(unscanned),
        attempts_total=sum(attempts_made.values()),
        plan_digest=fault_plan.digest() if fault_plan is not None else None,
    )


def record_stream_digest(records: Iterable[CollectedRecord]) -> str:
    """SHA-256 over the full repr of every record, in stream order.

    Two runs produce the same digest iff their record streams match
    field-for-field — the byte-identical bar the cached and parallel
    paths are held to.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def record_content_key(record: CollectedRecord) -> bytes:
    """Canonical content projection of one record, minus the raw message.

    The bounded-memory streaming mode releases each delivered message
    once its record is emitted (``tokenized.original=None``), so
    :func:`record_stream_digest` — which hashes the full repr, original
    included — cannot compare it against a retaining run.  This key
    covers every analysis-visible field *except* the back-reference, and
    is identical whether or not the original was retained.
    """
    tok = record.tokenized
    parts = (
        repr(tok.metadata),
        tok.body,
        repr(tok.attachments),
        repr(record.result),
        repr(record.study_domain),
        repr(record.timestamp),
        repr(record.true_kind),
        repr(record.processed),
    )
    return "\x1f".join(parts).encode("utf-8")


def record_content_digest(records: Iterable[CollectedRecord]) -> str:
    """Ordered SHA-256 over :func:`record_content_key`, in stream order.

    Comparable between retaining and bounded runs of the same driver
    (both emit records in arrival order).
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_content_key(record))
        digest.update(b"\x00")
    return digest.hexdigest()


_MULTISET_MODULUS = 1 << 256


def record_multiset_digest(records: Iterable[CollectedRecord]) -> str:
    """Order-independent digest: sum of per-record key hashes mod 2^256.

    The sink-mode streaming classifier emits terminal records in
    decision order and provisional ones at finalize, so its stream is a
    *permutation* of the batch stream; summing the per-record hashes
    makes equality checkable without buffering either side.
    """
    total = 0
    for record in records:
        key_hash = hashlib.sha256(record_content_key(record)).digest()
        total = (total + int.from_bytes(key_hash, "big")) % _MULTISET_MODULUS
    return f"{total:064x}"


class RecordDigestSink:
    """A ``record_sink`` that keeps counts and a multiset digest only.

    The memory-model endpoint: a paper-scale streaming run can verify
    its record stream against a batch run's
    :func:`record_multiset_digest` while retaining O(1) state.
    """

    def __init__(self) -> None:
        self.count = 0
        self.true_typo_count = 0
        self._total = 0

    def __call__(self, record: CollectedRecord) -> None:
        self.count += 1
        if record.is_true_typo:
            self.true_typo_count += 1
        key_hash = hashlib.sha256(record_content_key(record)).digest()
        self._total = ((self._total + int.from_bytes(key_hash, "big"))
                       % _MULTISET_MODULUS)

    def digest(self) -> str:
        return f"{self._total:064x}"

    # -- durable state (the study checkpoint's sink payload) -----------------

    def state_dict(self) -> Dict:
        """The sink's O(1) accumulator state, JSON-ready."""
        return {
            "count": self.count,
            "true_typo_count": self.true_typo_count,
            "total": f"{self._total:064x}",
        }

    def restore_state(self, data: Dict) -> None:
        self.count = data["count"]
        self.true_typo_count = data["true_typo_count"]
        self._total = int(data["total"], 16)
