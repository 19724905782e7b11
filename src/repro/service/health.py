"""Resilient serving: health states, chaos replay, and degraded lanes.

This module wraps a :class:`~repro.service.engine.RiskEngine` with the
machinery that keeps it answering under the faults a
:class:`~repro.faultsim.plan.FaultPlan` schedules against the serving
lane:

* a **health state machine** (``healthy`` → ``degraded`` →
  ``rules_only``) whose circuit breaker trips on index-probe error
  bursts and steps back up after a run of clean lookups;
* **admission control** via the engine's deterministic queue-depth
  model — overload sheds review-queue bookkeeping first (level 1) and
  the kernel scorer second (level 2), never the O(1) rules/exact paths;
* **fault application** — scorer stalls charge virtual latency into the
  admission model (never a real sleep), memory pressure shrinks the
  verdict memo, and scheduled churn deltas trigger the engine's
  crash-safe two-phase hot swap mid-traffic.

Everything that influences a *decision* — the fault timeline, the
health state, the admission depth — is a pure function of the lookup
sequence number, never of query content, verdict values, or memo state.
That discipline is what makes the serving lane replayable: the same
``(seed, plan, workload)`` triple yields byte-identical verdict streams
(including ``shed``/``degraded``/``rules_only`` labels) across runs and
``--jobs`` counts, because a batch shard can fast-forward the cheap
hash-draw timeline to its global offset and land in exactly the state
the serial path holds there.  An empty plan is pinned byte-identical to
the fault-free engine.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.defenses.risktiers import RiskPolicy
from repro.ecosystem.delta import ChurnSchedule
from repro.ecosystem.internet import InternetConfig
from repro.faultsim.inject import LookupFaults, ServiceFaultInjector
from repro.faultsim.plan import FaultPlan
from repro.service.engine import (
    AdmissionController,
    AdmissionPolicy,
    RiskEngine,
    RiskVerdict,
)
from repro.service.index import TypoRiskIndex
from repro.util.perf import PerfRegistry
from repro.util.pool import parallel_map

__all__ = ["HEALTH_STATES", "HealthPolicy", "HealthMonitor",
           "ResilientServer", "ChaosShardTask", "run_chaos_shard",
           "verdict_stream_digest"]

#: health states in descending capability; transitions move one step
HEALTH_STATES: Tuple[str, ...] = ("healthy", "degraded", "rules_only")

#: verdict sources produced by the full (memoizing) lane
_FULL_LANE_SOURCES = frozenset({"scorer", "index"})


def verdict_stream_digest(verdicts: Iterable[RiskVerdict]) -> str:
    """SHA-256 over the newline-joined canonical JSON of a stream.

    The replay suites pin this digest equal across runs and ``--jobs``
    counts — it covers every field of every verdict, including the
    ``shed``/``degraded``/``rules_only`` source labels.
    """
    digest = hashlib.sha256()
    for verdict in verdicts:
        digest.update(verdict.canonical_json().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class HealthPolicy:
    """Circuit-breaker thresholds for the serving health machine.

    ``trip_errors`` index-probe errors within a ``window``-lookup
    sliding window trip the breaker one state down;
    ``recovery_lookups`` consecutive error-free lookups step it one
    state back up.  ``floor_tier`` is the conservative tier every
    degraded-lane verdict is floored at (the scorer that would
    discriminate is unavailable, so the policy errs toward caution).
    """

    trip_errors: int = 3
    window: int = 50
    recovery_lookups: int = 200
    floor_tier: str = "medium"

    def __post_init__(self) -> None:
        if self.trip_errors < 1:
            raise ValueError("trip_errors must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.recovery_lookups < 1:
            raise ValueError("recovery_lookups must be >= 1")
        if self.floor_tier not in ("critical", "high", "medium", "review"):
            raise ValueError(
                f"floor_tier {self.floor_tier!r} is not an actionable "
                "tier (critical/high/medium/review)")


class HealthMonitor:
    """The serving lane's circuit breaker, fed one lookup at a time.

    State is a pure fold over the ``(sequence, index_error)`` timeline:
    no query content, no wall-clock.  ``transitions`` records every
    state change as ``(sequence, from_state, to_state)`` so parity
    suites can pin the exact trip/recovery points.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None) -> None:
        self.policy = policy or HealthPolicy()
        self.state = "healthy"
        self.transitions: List[Tuple[int, str, str]] = []
        self.tripped = 0
        self.recovered = 0
        self._errors: Deque[int] = deque()
        self._clean_streak = 0

    @property
    def is_healthy(self) -> bool:
        return self.state == "healthy"

    def observe(self, sequence: int, index_error: bool) -> None:
        """Fold one lookup's fault observation into the breaker."""
        if index_error:
            self._clean_streak = 0
            errors = self._errors
            errors.append(sequence)
            horizon = sequence - self.policy.window
            while errors and errors[0] <= horizon:
                errors.popleft()
            if (len(errors) >= self.policy.trip_errors
                    and self.state != "rules_only"):
                self._shift(sequence, +1)
                self.tripped += 1
                errors.clear()
            return
        if self.state == "healthy":
            return
        self._clean_streak += 1
        if self._clean_streak >= self.policy.recovery_lookups:
            self._shift(sequence, -1)
            self.recovered += 1
            self._clean_streak = 0

    def _shift(self, sequence: int, direction: int) -> None:
        position = HEALTH_STATES.index(self.state) + direction
        new_state = HEALTH_STATES[position]
        self.transitions.append((sequence, self.state, new_state))
        self.state = new_state

    def as_dict(self) -> Dict[str, object]:
        return {"state": self.state,
                "tripped": self.tripped,
                "recovered": self.recovered,
                "transitions": [list(t) for t in self.transitions]}


@dataclass
class ChaosServeStats:
    """Serial-equivalent counters of what the resilient server served."""

    answered: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    stall_ms_charged: float = 0.0
    stalls_charged: int = 0
    churn_swaps: int = 0
    memo_shrinks: int = 0

    def note(self, verdict: RiskVerdict) -> None:
        self.answered += 1
        source = verdict.source
        self.by_source[source] = self.by_source.get(source, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return {"answered": self.answered,
                "by_source": dict(sorted(self.by_source.items())),
                "stall_ms_charged": round(self.stall_ms_charged, 3),
                "stalls_charged": self.stalls_charged,
                "churn_swaps": self.churn_swaps,
                "memo_shrinks": self.memo_shrinks}


class ResilientServer:
    """A :class:`RiskEngine` behind chaos injection, admission control,
    and the degraded-mode health machine.

    With an empty plan every call delegates wholesale to the engine —
    the fault-free path is pinned byte-identical (and pays nothing).
    With service spells in the plan, each lookup steps the fault
    timeline, folds the observation into the health breaker, reads the
    overload level, and serves from the strongest lane the current
    state allows:

    ======================  ==============================  ============
    condition               lane                            source label
    ======================  ==============================  ============
    rules/exact decide      O(1) fast path (never shed)     rules/exact
    state == rules_only     conservative floor, no index    rules_only
    index probe fault       conservative floor, no index    degraded
    state == degraded       retrieval + tier floor          degraded
    overload level >= 2     conservative floor (shed)       shed
    otherwise               full memoized scorer            scorer/index
    ======================  ==============================  ============

    At overload level 1 the full lane still answers but review-band
    verdicts skip the human-queue append (bookkeeping sheds before
    answers).  The admission model charges each served lookup a
    modeled lane cost — a pure function of (state, level, injected
    stall), so the backlog fold is timeline-pure and shards replay it
    exactly.  No lookup is ever dropped and no fault ever surfaces as
    an exception.
    """

    def __init__(self, engine: RiskEngine,
                 plan: Optional[FaultPlan] = None, *,
                 admission: Optional[AdmissionPolicy] = None,
                 health: Optional[HealthPolicy] = None,
                 perf: Optional[PerfRegistry] = None) -> None:
        self.engine = engine
        self.plan = plan if plan is not None else FaultPlan.empty()
        self.injector = ServiceFaultInjector(self.plan)
        self.health_policy = health or HealthPolicy()
        self.health = HealthMonitor(self.health_policy)
        self.admission = AdmissionController(
            admission or AdmissionPolicy(), perf=perf)
        self.stats = ChaosServeStats()
        self.perf = perf

    # -- serving -----------------------------------------------------------

    def lookup(self, query: str) -> RiskVerdict:
        """Serve one query through the resilient decision tree."""
        if self.injector.is_empty:
            return self.engine.lookup(query)
        faults = self.injector.step()
        sequence = self.injector.sequence - 1
        return self._serve(query, faults, sequence)

    def batch_lookup(self, queries: Sequence[str], *,
                     jobs: Optional[int] = None) -> List[RiskVerdict]:
        """Serve a stream, optionally fanned out across processes.

        Workers replay the fault timeline to their shard's global
        offset (cheap hash draws — no kernel work) and serve with
        per-process state replicas; the parent then replays the same
        timeline while folding the shipped verdicts into its own memo,
        review queue, and counters, so the post-batch resident state —
        and the verdict stream — is byte-identical to serial serving.
        """
        if self.injector.is_empty:
            return self.engine.batch_lookup(queries, jobs=jobs)
        work = list(queries)
        if jobs is None or jobs <= 1 or len(work) <= 1:
            return [self.lookup(query) for query in work]
        out = fan_out_lookups(self.engine, work, jobs, plan=self.plan,
                              offset=self.injector.sequence,
                              admission=self.admission.policy,
                              health=self.health_policy, perf=self.perf)
        for query, verdict in zip(work, out):
            self._fold(query, verdict)
        return out

    def report(self) -> Dict[str, object]:
        """Everything observable about this serving run, JSON-ready."""
        return {"served": self.stats.as_dict(),
                "injected": self.injector.stats.as_dict(),
                "admission": self.admission.as_dict(),
                "health": self.health.as_dict(),
                "cache": self.engine.cache_stats()}

    # -- the per-lookup fold ----------------------------------------------

    def _serve(self, query: str, faults: LookupFaults,
               sequence: int) -> RiskVerdict:
        self._apply_state_faults(faults)
        self.health.observe(sequence, faults.index_error)
        level = self.admission.arrive()
        state = self.health.state
        floor = self.health_policy.floor_tier
        engine = self.engine
        verdict = engine.fast_verdict(query)
        if verdict is not None:
            pass                         # O(1) lane: never shed, never memoized
        elif state == "rules_only":
            verdict = engine.conservative_verdict(
                query, source="rules_only", floor_tier=floor)
        elif faults.index_error:
            # this lookup's probe failed; answer without the index
            verdict = engine.conservative_verdict(
                query, source="degraded", floor_tier=floor)
        elif state == "degraded":
            verdict = engine.degraded_lookup(query, floor_tier=floor)
        elif level >= 2:
            verdict = engine.conservative_verdict(
                query, source="shed", floor_tier=floor)
            self.admission.record_shed_lookup()
        else:
            misses_before = engine.cache_stats()["misses"]
            verdict = engine.serve_full(query, enqueue_review=level < 1)
            if (level == 1 and verdict.action == "review"
                    and engine.cache_stats()["misses"] > misses_before):
                self.admission.record_shed_review()
        self._charge(state, level, faults)
        self.stats.note(verdict)
        return verdict

    def _fold(self, query: str, verdict: RiskVerdict) -> None:
        """Replay one timeline step using a shard-computed verdict.

        Mirrors :meth:`_serve` exactly, with the verdict supplied
        instead of computed: same fault application, same breaker and
        admission folds, same memoize/enqueue decisions — so parallel
        batches leave the resident state serial-identical.
        """
        faults = self.injector.step()
        sequence = self.injector.sequence - 1
        self._apply_state_faults(faults)
        self.health.observe(sequence, faults.index_error)
        level = self.admission.arrive()
        state = self.health.state
        source = verdict.source
        if source in _FULL_LANE_SOURCES:
            engine = self.engine
            if engine._memo_probe(verdict.query) is None:
                engine._misses += 1
                engine._remember(verdict, enqueue_review=level < 1)
                if level == 1 and verdict.action == "review":
                    self.admission.record_shed_review()
            else:
                engine._hits += 1
        elif source == "shed":
            self.admission.record_shed_lookup()
        self._charge(state, level, faults)
        self.stats.note(verdict)

    def fast_forward(self, sequence: int) -> None:
        """Replay the state timeline to global lookup ``sequence``.

        Applies every state-bearing fault (churn swaps, memo shrinks),
        breaker observation, and admission charge the serial path would
        have applied — without any queries, because none of that state
        depends on query content.  Used by batch shards to land at
        their global offset.
        """
        while self.injector.sequence < sequence:
            faults = self.injector.step()
            position = self.injector.sequence - 1
            self._apply_state_faults(faults)
            self.health.observe(position, faults.index_error)
            level = self.admission.arrive()
            self._charge(self.health.state, level, faults)

    def _apply_state_faults(self, faults: LookupFaults) -> None:
        if faults.churn_day is not None:
            index = self.engine.index
            schedule = ChurnSchedule(index.seed, index.max_rank,
                                     daily_rate=faults.churn_rate)
            self.engine.hot_swap(schedule, faults.churn_day)
            self.stats.churn_swaps += 1
        if faults.memory_pressure:
            self.engine.shrink_memo()
            self.stats.memo_shrinks += 1

    def _charge(self, state: str, level: int,
                faults: LookupFaults) -> None:
        """Fold the lookup's modeled cost into the admission backlog.

        The cost is a pure function of (state, level, injected stall) —
        deliberately *not* of the query, so the backlog depth at any
        sequence is computable from the timeline alone.  Stall latency
        only lands when the scorer lane actually ran: shedding and
        degraded modes genuinely relieve the modeled load.
        """
        policy = self.admission.policy
        if state == "rules_only" or faults.index_error:
            cost = policy.fast_cost_ms
        elif state == "degraded":
            cost = policy.degraded_cost_ms
        elif level >= 2:
            cost = policy.fast_cost_ms
        else:
            cost = policy.scorer_cost_ms + faults.stall_ms
            if faults.stall_ms:
                self.stats.stall_ms_charged += faults.stall_ms
                self.stats.stalls_charged += 1
        self.admission.charge(cost)


# -- chaos pool fan-out ---------------------------------------------------


@dataclass(frozen=True)
class ChaosShardTask:
    """One picklable slice of a batch lookup.

    Carries the world identity plus the fault plan, the shard's global
    sequence offset, and the admission/health policies — everything a
    worker needs to rebuild the serial path's exact state at
    ``offset``.  The fault-free fan-out of
    :meth:`~repro.service.engine.RiskEngine.batch_lookup` ships the
    empty plan.
    """

    seed: int
    max_rank: int
    day: int
    churn: Tuple[Tuple[int, int], ...]
    config: Optional[InternetConfig]
    policy: RiskPolicy
    allowlist: Tuple[str, ...]
    blocklist: Tuple[str, ...]
    plan: FaultPlan
    offset: int
    admission: AdmissionPolicy
    health: HealthPolicy
    queries: Tuple[str, ...]
    #: learned-scorer plumbing (PR 8 predates the learned lane): the
    #: model is pure numpy dataclasses, so it ships to workers intact
    scorer: str = "rules"
    model: object = None


def run_chaos_shard(task: ChaosShardTask) -> List[RiskVerdict]:
    """Process-pool entry point: serve one shard.

    Builds a fresh engine (index construction is O(head targets) — the
    mid-traffic churn swaps mutate it, so it cannot be shared),
    fast-forwards the resilient state to the shard's global offset
    (nothing to replay under the empty plan), and serves.  Only the
    verdicts ship back; the worker's memo/review/counter state is
    discarded — the parent reconstructs the serial-equivalent state by
    replaying the fold.
    """
    index = TypoRiskIndex(task.seed, task.max_rank, config=task.config,
                          churn=dict(task.churn), day=task.day)
    engine = RiskEngine(index, policy=task.policy,
                        allowlist=task.allowlist,
                        blocklist=task.blocklist,
                        scorer=task.scorer, model=task.model)
    server = ResilientServer(engine, task.plan,
                             admission=task.admission, health=task.health)
    if not task.plan.is_empty:
        server.fast_forward(task.offset)
    lookup = server.lookup
    return [lookup(query) for query in task.queries]


def fan_out_lookups(engine: RiskEngine, queries: Sequence[str], jobs: int,
                    *, plan: FaultPlan, offset: int = 0,
                    admission: Optional[AdmissionPolicy] = None,
                    health: Optional[HealthPolicy] = None,
                    perf: Optional[PerfRegistry] = None
                    ) -> List[RiskVerdict]:
    """Serve ``queries`` as contiguous shards on worker processes.

    Returns the verdicts in stream order; folding them into the
    resident engine's state is the caller's job.
    """
    index = engine.index
    shard_count = min(jobs, len(queries))
    step = (len(queries) + shard_count - 1) // shard_count
    churn = tuple(sorted(index.churn_map().items()))
    tasks = [ChaosShardTask(
        seed=index.seed, max_rank=index.max_rank, day=index.day,
        churn=churn, config=index.config, policy=engine.policy,
        allowlist=tuple(sorted(engine._allow)),
        blocklist=tuple(sorted(engine._block)),
        plan=plan, offset=offset + low,
        admission=admission or AdmissionPolicy(),
        health=health or HealthPolicy(),
        queries=tuple(queries[low:low + step]),
        scorer=engine.scorer, model=engine.model)
        for low in range(0, len(queries), step)]
    shards = parallel_map(run_chaos_shard, tasks, jobs=jobs, perf=perf)
    return [verdict for shard in shards for verdict in shard]
