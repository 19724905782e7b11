"""Parallel engines: the multi-seed study fan-out and the rank-range runner.

:func:`run_ranges` is the one fan-out over Alexa ranks: the plain and
resilient scans (a checkpointed one is also the delta re-scan) and the
featurize sweep are thin calls into it (see the section below).

One simulated seven-month study is a single draw from the generative
world; the robustness sweeps, the ablation benches, and the calibration
workflows all need *many* draws.  The study fan-out runs independent
:class:`StudyRunner` configurations on worker processes:

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
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.analysis.records import CollectedRecord
from repro.core.targets import StudyCorpus
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.delta import (
    _DEFAULT_RANGE_WIDTH,
    RangeRecord,
    _config_digest,
    _width_ranges,
    world_range_digest,
)
from repro.ecosystem.internet import InternetConfig
from repro.ecosystem.world import WorldModel
from repro.experiment.config import ExperimentConfig
from repro.experiment.runner import StudyResults, StudyRunner
from repro.faultsim.plan import FaultPlan, InjectedWorkerCrash
from repro.util.perf import PerfRegistry
# parallel_map and the fallback counter moved to repro.util.pool (the
# classify pipeline needs them without importing the study engine);
# re-exported here so existing imports keep working
from repro.util.pool import (                                    # noqa: F401
    parallel_imap,
    parallel_map,
    pool_fallback_count,
)
from repro.util.artifact import ArtifactFormat, read_journal, write_segment
from repro.util.errors import CheckpointMismatchError, DegradedRunError
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
    "RangeTask",
    "RangeRun",
    "run_range",
    "run_ranges",
    "scan_range",
    "run_sharded_scan",
    "ShardRetryPolicy",
    "ShardOutcome",
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


# -- the rank-range runner ---------------------------------------------------
#
# Every per-rank stream of the lazy world is keyed by ``(seed, purpose,
# rank, generation)``, so a rank range needs nothing from its neighbours.
# One runner serves every fan-out over ranks: fixed-width ranges that do
# not depend on ``jobs``, one module-level consumer per pass (the scan
# fold or the feature blocks), per-range retry, and one reuse rule — a
# stored range record is taken when its ``(start, stop, world_digest)``
# matches.  The plain scan is this runner with no fault plan and no store.


@dataclass(frozen=True)
class RangeTask:
    """One rank range of a runner pass (picklable).

    ``consume(world, task, perf)`` is module-level (:func:`scan_range`
    or :func:`repro.features.domains.featurize_range`); ``max_rank`` is
    the whole pass's universe, so target collisions match the one-call
    walk; ``churn`` holds the sorted (rank, generation) pairs inside the
    range; ``attempt`` is 1-based, so a fault plan's crash spec with
    ``failures=N`` kills attempts 1..N.
    """

    seed: int
    start_rank: int
    stop_rank: int
    max_rank: int
    consume: Callable
    config: Optional[InternetConfig] = None
    churn: Tuple[Tuple[int, int], ...] = ()
    exclude: Tuple[str, ...] = ()
    fault_plan: Optional[FaultPlan] = None
    attempt: int = 1


#: this process's ``(seed, config, churn, WorldModel)`` during a pass:
#: its ranges share the world's filler chunks and stream caches
_world_slot: Optional[tuple] = None


def run_range(task: RangeTask) -> Tuple[object, PerfRegistry]:
    """Run one range: the consumer's value and the range's perf timers.

    A crash spec of the task's fault plan raises
    :class:`InjectedWorkerCrash` here (a hang sleeps first).
    """
    global _world_slot
    spec = (task.fault_plan.crash_spec_for_shard(
        task.start_rank, task.stop_rank, task.attempt)
        if task.fault_plan is not None else None)
    if spec is not None and spec.mode == "hang":
        time.sleep(spec.hang_seconds)
    elif spec is not None:
        raise InjectedWorkerCrash(
            f"injected crash in range [{task.start_rank},{task.stop_rank})"
            f" attempt {task.attempt}")
    key = (task.seed, task.config, task.churn)
    if _world_slot is None or _world_slot[:3] != key:
        churn = dict(task.churn) or None
        world = (_world_slot[3].evolved(churn)
                 if _world_slot is not None and _world_slot[:2] == key[:2]
                 else WorldModel(task.seed, task.config, churn=churn))
        _world_slot = key + (world,)
    perf = PerfRegistry()
    return task.consume(_world_slot[3], task, perf), perf


def _run_guarded(task: RangeTask) -> Union[Tuple[object, PerfRegistry], str]:
    """:func:`run_range`, with a failure returned as its error text, so
    one crashing range never takes a round of the pool down."""
    try:
        return run_range(task)
    except Exception as error:
        return f"{type(error).__name__}: {error}"


def scan_range(world: WorldModel, task: RangeTask,
               perf: PerfRegistry) -> ScanAggregates:
    """The scan consumer: the range's streaming aggregates."""
    return world.scan_ranks(task.start_rank, task.stop_rank,
                            max_rank=task.max_rank, exclude=task.exclude,
                            perf=perf)


@dataclass(frozen=True)
class ShardRetryPolicy:
    """How many times a failed range runs, and the pool path's per-range
    timeout (``None``: hung workers look like slow ones)."""

    max_attempts: int = 3
    shard_timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if (self.shard_timeout_seconds is not None
                and self.shard_timeout_seconds <= 0):
            raise ValueError("shard_timeout_seconds must be positive")


@dataclass(frozen=True)
class ShardOutcome:
    """How one rank range ended up: run, reused from a store, or lost."""

    start_rank: int
    stop_rank: int
    status: str                # "completed" | "resumed" | "failed"
    attempts: int              # 0 for ranges reused from a store
    error: Optional[str] = None


@dataclass(frozen=True)
class RangeRun:
    """A finished, possibly degraded, runner pass; ranges in rank order.

    A scan pass carries ``aggregates``, the merge of its completed
    ranges, so a degraded scan covers only the scanned ranges and
    ``unscanned_ranges`` names the holes exactly.
    """

    outcomes: Tuple[ShardOutcome, ...]
    plan_digest: Optional[str] = None
    aggregates: Optional[ScanAggregates] = None

    @property
    def unscanned_ranges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((o.start_rank, o.stop_rank) for o in self.outcomes
                     if o.status == "failed")

    @property
    def degraded(self) -> bool:
        return bool(self.unscanned_ranges)

    @property
    def attempts_total(self) -> int:
        return sum(o.attempts for o in self.outcomes)

    def _holes(self) -> str:
        return ", ".join(f"[{start},{stop})"
                         for start, stop in self.unscanned_ranges)

    def raise_if_degraded(self) -> None:
        """Raise :class:`DegradedRunError` naming every lost range."""
        failed = [o for o in self.outcomes if o.status == "failed"]
        if failed:
            raise DegradedRunError(
                f"run completed DEGRADED: rank ranges {self._holes()} were "
                f"never scanned (last error: {failed[-1].error})")

    def summary_lines(self) -> List[str]:
        """Human-readable robustness report for CLI/report output."""
        counts = [sum(1 for o in self.outcomes if o.status == status)
                  for status in ("completed", "resumed", "failed")]
        lines = [f"ranges: {len(self.outcomes)} (completed {counts[0]}, "
                 f"resumed {counts[1]}, failed {counts[2]})",
                 f"attempts: {self.attempts_total}"]
        if self.plan_digest is not None:
            lines.append(f"fault plan digest: {self.plan_digest}")
        lines.append(f"DEGRADED — unscanned rank ranges: {self._holes()}"
                     if self.degraded
                     else "complete — every rank range scanned")
        return lines


def run_ranges(seed: int, max_rank: int, consume: Callable,
               on_value: Callable[[int, int, str, object], None], *,
               jobs: Optional[int] = None,
               config: Optional[InternetConfig] = None,
               churn: Optional[Dict[int, int]] = None,
               exclude: Sequence[str] = (),
               range_width: int = _DEFAULT_RANGE_WIDTH,
               fault_plan: Optional[FaultPlan] = None,
               retry: Optional[ShardRetryPolicy] = None,
               reuse: Optional[Mapping[Tuple[int, int], RangeRecord]] = None,
               on_record: Optional[Callable[[RangeRecord], None]] = None,
               perf: Optional[PerfRegistry] = None) -> RangeRun:
    """Run ``consume`` over ``range_width``-wide ranges of ``1..max_rank``.

    ``jobs`` sets the worker count only: the ranges, and so every value,
    are the same at any count.  ``churn`` maps rank -> generation of the
    evolved world.  A range of ``reuse`` whose world digest matches is
    taken as it is (status ``resumed``); every other range runs, failed
    attempts requeue up to ``retry.max_attempts``, and each completed
    scan range goes to ``on_record`` as it lands.  Every value reaches
    ``on_value(start, stop, world_digest, value)`` in rank order, as
    soon as the ranges before it have; none is kept past that.
    """
    global _world_slot
    retry = retry if retry is not None else ShardRetryPolicy()
    ranges = _width_ranges(max_rank, range_width)
    events = sorted((churn or {}).items())
    ranks = [rank for rank, _ in events]
    churns = [tuple(events[bisect_left(ranks, start):
                           bisect_left(ranks, stop)])
              for start, stop in ranges]
    digests = [world_range_digest(seed, start, stop, dict(pairs))
               for (start, stop), pairs in zip(ranges, churns)]
    outcomes = [ShardOutcome(start, stop, "failed", 0)
                for start, stop in ranges]
    held: Dict[int, object] = {}
    delivered = 0

    def deliver(final: bool = False) -> None:
        # hand out values in rank order; at the end, skip lost ranges
        nonlocal delivered
        while delivered < len(ranges) and (delivered in held or final):
            if delivered in held:
                on_value(*ranges[delivered], digests[delivered],
                         held.pop(delivered))
            delivered += 1

    pending: List[int] = []
    for i, key in enumerate(ranges):
        stored = reuse.get(key) if reuse else None
        if stored is not None and stored.world_digest == digests[i]:
            held[i] = stored.aggregates
            outcomes[i] = replace(outcomes[i], status="resumed")
        else:
            pending.append(i)
    deliver()

    try:
        for attempt in range(1, retry.max_attempts + 1):
            tasks = [RangeTask(seed, *ranges[i], max_rank, consume, config,
                               churns[i], tuple(exclude), fault_plan, attempt)
                     for i in pending]
            results = parallel_imap(_run_guarded, tasks, jobs=jobs,
                                    perf=perf,
                                    timeout=retry.shard_timeout_seconds)
            failed = []
            for n, result in enumerate(results):
                i = pending[n]
                if isinstance(result, str):
                    outcomes[i] = replace(outcomes[i], attempts=attempt,
                                          error=result)
                    failed.append(i)
                    continue
                held[i], range_perf = result
                outcomes[i] = replace(outcomes[i], status="completed",
                                      attempts=attempt, error=None)
                if perf is not None:
                    perf.merge(range_perf)
                if on_record is not None:
                    on_record(RangeRecord(*ranges[i], digests[i], held[i]))
                deliver()
            pending = failed
            if not pending:
                break
            if perf is not None and attempt < retry.max_attempts:
                perf.count("scan.shard_retries", len(pending))
    finally:
        # the warm world serves one pass: the next may not share it
        _world_slot = None

    deliver(final=True)
    if perf is not None and pending:
        perf.count("scan.unscanned_ranges", len(pending))
    return RangeRun(
        outcomes=tuple(outcomes),
        plan_digest=fault_plan.digest() if fault_plan is not None else None)


# -- the scan entry points ---------------------------------------------------


def run_sharded_scan(seed: int, max_rank: int, jobs: Optional[int] = None,
                     config: Optional[InternetConfig] = None,
                     exclude: Sequence[str] = (),
                     churn: Sequence[Tuple[int, int]] = (),
                     range_width: int = _DEFAULT_RANGE_WIDTH,
                     perf: Optional[PerfRegistry] = None) -> ScanAggregates:
    """Scan ranks ``1..max_rank``: the runner with no plan and no store.

    The aggregates (and their digest) are the one-call
    ``WorldModel.scan_ranks`` fold at any ``jobs`` and ``range_width``.
    ``churn`` evolves the world by (rank, generation) pairs (see
    :mod:`repro.ecosystem.delta`).  A range that fails every retry
    raises :class:`~repro.util.errors.DegradedRunError`.
    """
    run = run_resilient_scan(seed, max_rank, jobs=jobs, config=config,
                             exclude=exclude, churn=churn,
                             range_width=range_width, perf=perf)
    run.raise_if_degraded()
    return run.aggregates


#: scan-checkpoint journal tag; ``@3`` records the world config and the
#: exclude set in its identity (``@2`` reused a range of another world)
SCAN_CHECKPOINT_FORMAT = "repro-scan-checkpoint@3"

_ARTIFACT = ArtifactFormat(SCAN_CHECKPOINT_FORMAT, "scan checkpoint",
                           "delete it and rescan")

#: the base-segment fields a resuming run must match
_IDENTITY = ("seed", "max_rank", "config_digest", "exclude")


class ScanCheckpoint:
    """Durable range records of one scan: the one store of a scan's ranges.

    A journal of envelopes, one per line: the base segment holds the
    scan's identity — ``seed``, ``max_rank``, the world config's digest
    and the exclude set — and the records held when it was written; each
    later segment appends one completed range, so a save costs one range
    however long the scan.  The churn day is not part of the identity:
    each record carries the world digest of its range, so a re-run at a
    later ``days`` reuses exactly the ranges churn did not touch (the
    delta re-scan), and a newer record drops every stored range it
    overlaps.  A run of another identity is a mismatch naming the field,
    a range outside ``1..max_rank + 1`` is corrupt, and a torn last line
    is dropped.  :meth:`compact` rewrites a journal that still holds
    dropped records as one base segment of the held ones.
    """

    def __init__(self, path: Union[str, Path], seed: int, max_rank: int,
                 config: Optional[InternetConfig] = None,
                 exclude: Sequence[str] = ()) -> None:
        self._open(path, {"seed": seed, "max_rank": max_rank,
                          "config_digest": _config_digest(config),
                          "exclude": sorted(set(exclude))})

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ScanCheckpoint":
        """The checkpoint at ``path`` under the identity it was written
        with (what the doctor validates)."""
        checkpoint = cls.__new__(cls)
        checkpoint._open(path, None)
        return checkpoint

    def _open(self, path: Union[str, Path], identity: Optional[Dict]) -> None:
        self.path = Path(path)
        self.identity = identity
        self.records: Dict[Tuple[int, int], RangeRecord] = {}
        self.torn_tail = False
        #: digest and end offset of this object's last segment; its first
        #: record rewrites the file as one base segment of every record
        self._head: Optional[str] = None
        self._end = 0
        #: records the file still holds that a newer record dropped
        self._superseded = 0
        if self.path.exists():
            self.torn_tail = read_journal(self.path, _ARTIFACT,
                                          self._fold).torn_tail

    @property
    def max_rank(self) -> int:
        return self.identity["max_rank"]

    def _fold(self, segment: Dict) -> None:
        if segment["prev"] is None:
            written = {key: segment[key] for key in _IDENTITY}
            if self.identity is None:
                self.identity = written
            for key in _IDENTITY:
                if written[key] != self.identity[key]:
                    raise CheckpointMismatchError(
                        f"checkpoint {self.path} was written for "
                        f"{key}={written[key]!r}, not "
                        f"{key}={self.identity[key]!r}")
        for payload in segment["ranges"]:
            self._hold(RangeRecord.from_canonical_dict(payload))

    def _hold(self, record: RangeRecord) -> None:
        start, stop = record.start_rank, record.stop_rank
        if not 1 <= start < stop <= self.max_rank + 1:
            raise ValueError(f"range {start}-{stop} lies outside ranks "
                             f"1..{self.max_rank}")
        overlapped = [key for key in self.records
                      if key[0] < stop and start < key[1]]
        for key in overlapped:
            del self.records[key]
        self._superseded += len(overlapped)
        self.records[(start, stop)] = record

    def record(self, record: RangeRecord) -> None:
        """Persist one completed range (an fsync'd append)."""
        self._hold(record)
        if self._head is None:
            self._write_base()
            return
        self._head, size = write_segment(
            self.path, {"format": SCAN_CHECKPOINT_FORMAT, "prev": self._head,
                        "ranges": [record.canonical_dict()]}, at=self._end)
        self._end += size

    def compact(self) -> None:
        """Rewrite the journal as one base segment if it holds records
        that newer ones dropped (a delta re-scan's superseded ranges)."""
        if self._superseded:
            self._write_base()

    def _write_base(self) -> None:
        segment = {"format": SCAN_CHECKPOINT_FORMAT, "prev": None,
                   **self.identity,
                   "ranges": [held.canonical_dict() for _, held
                              in sorted(self.records.items())]}
        self._head, self._end = write_segment(self.path, segment)
        self._superseded = 0

    @property
    def completed_count(self) -> int:
        return len(self.records)


def run_resilient_scan(seed: int, max_rank: int, jobs: Optional[int] = None,
                       config: Optional[InternetConfig] = None,
                       exclude: Sequence[str] = (),
                       fault_plan: Optional[FaultPlan] = None,
                       retry: Optional[ShardRetryPolicy] = None,
                       checkpoint_path: Optional[Union[str, Path]] = None,
                       churn: Sequence[Tuple[int, int]] = (),
                       range_width: int = _DEFAULT_RANGE_WIDTH,
                       perf: Optional[PerfRegistry] = None) -> RangeRun:
    """Self-healing scan: the runner with a fault plan and a checkpoint.

    Injected crashes and hangs (and real worker failures) are retried up
    to ``retry.max_attempts``; ranges that still fail are reported as
    unscanned, and ``aggregates`` merges the rest (``perf`` times that
    as ``scan.merge_seconds``).  With ``checkpoint_path`` every completed
    range goes to a :class:`ScanCheckpoint`, and a re-run at any
    ``jobs`` and any ``churn`` reuses each stored range whose world
    digest matches: a checkpoint re-run at a later churn day is the
    delta re-scan, which ends by compacting away the records it
    superseded.
    """
    store = (ScanCheckpoint(checkpoint_path, seed, max_rank, config,
                            exclude)
             if checkpoint_path is not None else None)
    merged = ScanAggregates()

    def merge(start: int, stop: int, world_digest: str,
              aggregates: ScanAggregates) -> None:
        started = time.perf_counter()
        merged.merge(aggregates)
        if perf is not None:
            perf.add_seconds("scan.merge_seconds",
                             time.perf_counter() - started)

    run = run_ranges(seed, max_rank, scan_range, merge, jobs=jobs,
                     config=config, churn=dict(churn), exclude=exclude,
                     range_width=range_width, fault_plan=fault_plan,
                     retry=retry,
                     reuse=store.records if store is not None else None,
                     on_record=store.record if store is not None else None,
                     perf=perf)
    if store is not None:
        store.compact()
    return replace(run, aggregates=merged)


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
