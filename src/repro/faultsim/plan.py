"""Seeded, time-windowed fault plans for the whole reproduction.

The paper's seven-month live collection ran on infrastructure that
faulted — the collection server crashed under spam for roughly two
months, typo-domain MX hosts flapped, and senders retried transient
errors — and those faults shaped the reported volumes.  A
:class:`FaultPlan` makes that class of event a first-class, *scheduled*
simulation input:

* **collector outages** — day spans during which the study's VPS fleet
  tempfails inbound mail with a 4yz (``mode="tempfail"``, recoverable by
  the sender's retry queue) or the central collector silently drops it
  (``mode="drop"``, the paper's crash);
* **DNS spells** — windows during which resolution SERVFAILs or times
  out with some probability, per domain-suffix;
* **SMTP spells** — windows of probabilistic 4yz tempfails, greylisting
  (first attempt per envelope tempfails), and mid-session 421 drops;
* **shard crashes** — injected worker-process deaths (or hangs) in the
  sharded ecosystem scan, keyed by the rank a shard covers;
* **service spells** — lookup-windowed faults against the resident
  typo-risk query service (:mod:`repro.service`): scorer stalls,
  index-probe error bursts, memory-pressure memo shrinks, and scheduled
  mid-traffic churn deltas, keyed by the lookup sequence number instead
  of the study day clock.

Determinism is the design invariant: every probabilistic decision is a
pure function of ``(plan.seed, stable context)`` (see
:mod:`repro.faultsim.inject`), so the same ``(seed, plan)`` pair replays
byte-identically across runs and across worker counts, and an **empty
plan is exactly the fault-free simulation**.  Plans round-trip through
canonical JSON and are identified by a SHA-256 digest, which is how a
degraded run is reproduced after the fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.smtpsim.retryqueue import RetryPolicy
from repro.util.artifact import canonical_json, json_digest

__all__ = [
    "OutageSpan",
    "DnsFaultSpell",
    "SmtpFaultSpell",
    "ShardCrashSpec",
    "StudyCrashSpec",
    "ServiceFaultSpell",
    "SERVICE_FAULT_KINDS",
    "FaultPlan",
    "InjectedWorkerCrash",
    "InjectedStudyCrash",
]


class InjectedWorkerCrash(RuntimeError):
    """Raised inside a scan worker to simulate its process dying."""


class InjectedStudyCrash(RuntimeError):
    """Raised at a study-day boundary to simulate the whole run dying.

    Only fires when the run is checkpointing — the point is to prove the
    kill→resume→identical loop, and a crash without a checkpoint is just
    a dead run.  :func:`~repro.experiment.runner.run_durable_study`
    catches it and resumes from the last day-boundary checkpoint.
    """


def _check_span(start_day: int, end_day: int) -> None:
    if start_day < 0 or end_day <= start_day:
        raise ValueError(
            f"need 0 <= start_day < end_day, got [{start_day}, {end_day})")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class OutageSpan:
    """A half-open ``[start_day, end_day)`` collection-infrastructure outage.

    ``mode="tempfail"`` (default): the VPS fleet 451s inbound mail, so
    sending MTAs queue and retry — mail is *recovered* once the span
    ends, unless the retry horizon expires first.  ``mode="drop"``: the
    central collector black-holes forwarded mail, reproducing the
    paper's crashed-infrastructure gap (counted, never recovered).
    """

    start_day: int
    end_day: int
    mode: str = "tempfail"

    def __post_init__(self) -> None:
        _check_span(self.start_day, self.end_day)
        if self.mode not in ("tempfail", "drop"):
            raise ValueError(f"unknown outage mode {self.mode!r}")

    def covers(self, day: int) -> bool:
        return self.start_day <= day < self.end_day


@dataclass(frozen=True)
class DnsFaultSpell:
    """A window of transient resolver failures.

    ``mode`` is ``"servfail"`` or ``"timeout"`` (both retryable by the
    sender).  ``domain_suffixes`` limits the blast radius (a domain is
    affected when it equals or ends with ``"." + suffix``); empty means
    every resolution.  Each (day, domain) pair draws once against
    ``probability`` — stateless, so retries on later days re-draw.
    """

    start_day: int
    end_day: int
    mode: str = "servfail"
    probability: float = 1.0
    domain_suffixes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_span(self.start_day, self.end_day)
        if self.mode not in ("servfail", "timeout"):
            raise ValueError(f"unknown DNS fault mode {self.mode!r}")
        _check_probability("probability", self.probability)
        object.__setattr__(self, "domain_suffixes",
                           tuple(s.lower() for s in self.domain_suffixes))

    def covers(self, day: int) -> bool:
        return self.start_day <= day < self.end_day

    def matches_domain(self, domain: str) -> bool:
        if not self.domain_suffixes:
            return True
        return any(domain == suffix or domain.endswith("." + suffix)
                   for suffix in self.domain_suffixes)


@dataclass(frozen=True)
class SmtpFaultSpell:
    """A window of server-side SMTP misbehaviour on the gated hosts.

    Per delivery attempt, in order: a greylisting check (first attempt
    for a new ``(host, sender, recipient)`` envelope tempfails with 451),
    then a ``drop_probability`` draw (421 — the server hangs up
    mid-session), then a ``tempfail_probability`` draw (451).  Draws are
    keyed by the attempt's timestamp, so a retried message re-rolls.
    ``host_suffixes`` restricts the spell to matching server hostnames.
    """

    start_day: int
    end_day: int
    tempfail_probability: float = 0.0
    drop_probability: float = 0.0
    greylist: bool = False
    host_suffixes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_span(self.start_day, self.end_day)
        _check_probability("tempfail_probability", self.tempfail_probability)
        _check_probability("drop_probability", self.drop_probability)
        object.__setattr__(self, "host_suffixes",
                           tuple(s.lower() for s in self.host_suffixes))

    def covers(self, day: int) -> bool:
        return self.start_day <= day < self.end_day

    def matches_host(self, hostname: str) -> bool:
        if not self.host_suffixes:
            return True
        hostname = hostname.lower()
        return any(hostname == suffix or hostname.endswith("." + suffix)
                   for suffix in self.host_suffixes)


@dataclass(frozen=True)
class ShardCrashSpec:
    """Crash (or hang) injection for the scan shard covering ``rank``.

    The shard whose ``[start_rank, stop_rank)`` range contains ``rank``
    fails its first ``failures`` attempts.  ``mode="crash"`` raises
    :class:`InjectedWorkerCrash` (a worker death the scheduler must
    requeue); ``mode="hang"`` sleeps ``hang_seconds`` before proceeding,
    which trips a per-shard timeout when one is configured.
    """

    rank: int
    failures: int = 1
    mode: str = "crash"
    hang_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.failures < 1:
            raise ValueError("failures must be >= 1")
        if self.mode not in ("crash", "hang"):
            raise ValueError(f"unknown crash mode {self.mode!r}")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")


@dataclass(frozen=True)
class StudyCrashSpec:
    """Kill the whole study run when it reaches ``day``.

    Fires at the start of the day, before any of that day's work, and
    only on the first ``failures`` visits to the day *across process
    restarts* — the resume-attempt counter lives in the study checkpoint,
    so a ``failures=N`` spec dies N times and then lets the N+1-th
    (resumed) visit proceed.  This is how the chaos lane proves
    kill→resume→identical end to end without real SIGKILLs.

    ``phase`` picks the injection point inside the day: ``"day"`` (the
    default, day start) or ``"retrain"`` — after a scenario-scheduled
    shadow retrain has produced its candidate but before the gated
    promote publishes, the mid-lifecycle boundary the drift-resilience
    chaos lane kills at.
    """

    day: int
    failures: int = 1
    phase: str = "day"

    def __post_init__(self) -> None:
        if self.day < 0:
            raise ValueError("day must be >= 0")
        if self.failures < 1:
            raise ValueError("failures must be >= 1")
        if self.phase not in ("day", "retrain"):
            raise ValueError(f"unknown study crash phase {self.phase!r}")


#: the service-lane fault kinds a :class:`ServiceFaultSpell` may schedule
SERVICE_FAULT_KINDS = ("scorer_stall", "index_error", "memory_pressure",
                       "churn_delta")


@dataclass(frozen=True)
class ServiceFaultSpell:
    """A half-open ``[start_lookup, end_lookup)`` window of service faults.

    The resident query service has no day clock, so service spells are
    keyed by the **lookup sequence number** — the position of a query in
    the served stream.  Within the window, each lookup draws once
    against ``probability`` (a pure :func:`~repro.faultsim.inject.unit_draw`
    of ``(plan seed, kind, spell index, sequence)``), so the same
    ``(seed, plan, workload)`` triple replays byte-identically at any
    worker count.  Kinds:

    * ``"scorer_stall"`` — the kernel scorer stalls for ``stall_ms`` of
      *virtual* latency on hit lookups; stall backlog drives the
      engine's deterministic admission-control queue depth (and hence
      load shedding), never a real ``sleep``;
    * ``"index_error"`` — the index probe errors on hit lookups; the
      engine answers degraded (never an exception) and enough errors in
      a window trip the circuit breaker toward rules-only serving;
    * ``"memory_pressure"`` — hit lookups force a verdict-memo shrink
      (the old memo generation is dropped), modelling an OOM-killer
      near miss; verdicts are pure so only hit rates move;
    * ``"churn_delta"`` — at the first served lookup inside the window
      the engine hot-swaps its index to churn day ``churn_day`` (rate
      ``churn_rate``) mid-traffic — the two-phase generation swap under
      live load.  Fires once per spell; ``probability`` is ignored.
    """

    start_lookup: int
    end_lookup: int
    kind: str
    probability: float = 1.0
    stall_ms: float = 5.0
    churn_day: int = 0
    churn_rate: float = 0.004

    def __post_init__(self) -> None:
        if self.start_lookup < 0 or self.end_lookup <= self.start_lookup:
            raise ValueError(
                f"need 0 <= start_lookup < end_lookup, got "
                f"[{self.start_lookup}, {self.end_lookup})")
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(
                f"unknown service fault kind {self.kind!r} "
                f"(expected one of {', '.join(SERVICE_FAULT_KINDS)})")
        _check_probability("probability", self.probability)
        if self.stall_ms < 0:
            raise ValueError("stall_ms must be non-negative")
        if self.kind == "churn_delta":
            if self.churn_day < 1:
                raise ValueError("churn_delta spells need churn_day >= 1")
            _check_probability("churn_rate", self.churn_rate)

    def covers(self, sequence: int) -> bool:
        return self.start_lookup <= sequence < self.end_lookup


@dataclass(frozen=True)
class FaultPlan:
    """Everything the chaos layer may do to one run, fully seeded."""

    seed: int = 0
    collector_outages: Tuple[OutageSpan, ...] = ()
    dns_spells: Tuple[DnsFaultSpell, ...] = ()
    smtp_spells: Tuple[SmtpFaultSpell, ...] = ()
    shard_crashes: Tuple[ShardCrashSpec, ...] = ()
    study_crashes: Tuple[StudyCrashSpec, ...] = ()
    service_spells: Tuple[ServiceFaultSpell, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @property
    def is_empty(self) -> bool:
        """True when the plan schedules no fault of any kind."""
        return not (self.collector_outages or self.dns_spells
                    or self.smtp_spells or self.shard_crashes
                    or self.study_crashes or self.service_spells)

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultPlan":
        """The do-nothing plan: byte-identical to running without one."""
        return cls(seed=seed)

    # -- scan-shard lookups --------------------------------------------------

    def crash_spec_for_shard(self, start_rank: int, stop_rank: int,
                             attempt: int) -> Optional[ShardCrashSpec]:
        """The spec that fails this shard's ``attempt`` (1-based), if any."""
        for spec in self.shard_crashes:
            if start_rank <= spec.rank < stop_rank and attempt <= spec.failures:
                return spec
        return None

    # -- study-day lookups ---------------------------------------------------

    def crash_spec_for_study_day(self, day: int, attempt: int,
                                 phase: str = "day"
                                 ) -> Optional[StudyCrashSpec]:
        """The spec that kills this visit to ``day`` (1-based attempt)."""
        for spec in self.study_crashes:
            if (spec.day == day and spec.phase == phase
                    and attempt <= spec.failures):
                return spec
        return None

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "collector_outages": [
                {"start_day": o.start_day, "end_day": o.end_day,
                 "mode": o.mode}
                for o in self.collector_outages],
            "dns_spells": [
                {"start_day": s.start_day, "end_day": s.end_day,
                 "mode": s.mode, "probability": s.probability,
                 "domain_suffixes": list(s.domain_suffixes)}
                for s in self.dns_spells],
            "smtp_spells": [
                {"start_day": s.start_day, "end_day": s.end_day,
                 "tempfail_probability": s.tempfail_probability,
                 "drop_probability": s.drop_probability,
                 "greylist": s.greylist,
                 "host_suffixes": list(s.host_suffixes)}
                for s in self.smtp_spells],
            "shard_crashes": [
                {"rank": c.rank, "failures": c.failures, "mode": c.mode,
                 "hang_seconds": c.hang_seconds}
                for c in self.shard_crashes],
            "study_crashes": [
                # phase is emitted only when non-default so pre-existing
                # plan digests stay stable
                ({"day": c.day, "failures": c.failures}
                 if c.phase == "day" else
                 {"day": c.day, "failures": c.failures, "phase": c.phase})
                for c in self.study_crashes],
            "service_spells": [
                {"start_lookup": s.start_lookup,
                 "end_lookup": s.end_lookup, "kind": s.kind,
                 "probability": s.probability, "stall_ms": s.stall_ms,
                 "churn_day": s.churn_day, "churn_rate": s.churn_rate}
                for s in self.service_spells],
            "retry": self.retry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls(
            seed=data.get("seed", 0),
            collector_outages=tuple(
                OutageSpan(**entry)
                for entry in data.get("collector_outages", ())),
            dns_spells=tuple(
                DnsFaultSpell(**{**entry,
                                 "domain_suffixes": tuple(
                                     entry.get("domain_suffixes", ()))})
                for entry in data.get("dns_spells", ())),
            smtp_spells=tuple(
                SmtpFaultSpell(**{**entry,
                                  "host_suffixes": tuple(
                                      entry.get("host_suffixes", ()))})
                for entry in data.get("smtp_spells", ())),
            shard_crashes=tuple(
                ShardCrashSpec(**entry)
                for entry in data.get("shard_crashes", ())),
            study_crashes=tuple(
                StudyCrashSpec(**entry)
                for entry in data.get("study_crashes", ())),
            service_spells=tuple(
                ServiceFaultSpell(**entry)
                for entry in data.get("service_spells", ())),
            retry=RetryPolicy.from_dict(
                data.get("retry", RetryPolicy().to_dict())),
        )

    def to_json(self) -> str:
        """Canonical JSON — the digest input and the ``--fault-plan`` format."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON: the plan's reproducible identity."""
        return json_digest(self.to_dict())

    # -- the demo plan behind ``--chaos`` ------------------------------------

    @classmethod
    def chaos_demo(cls, seed: int = 0) -> "FaultPlan":
        """A representative mid-severity plan for ``--chaos`` runs.

        A recoverable ten-day tempfail outage, a shorter hard drop, a
        flaky-DNS week, a greylisting spell, probabilistic tempfails,
        and one injected worker crash in the sharded scan.
        """
        return cls(
            seed=seed,
            collector_outages=(
                OutageSpan(40, 50, mode="tempfail"),
                OutageSpan(150, 153, mode="drop"),
            ),
            dns_spells=(
                DnsFaultSpell(60, 67, mode="servfail", probability=0.25),
            ),
            smtp_spells=(
                SmtpFaultSpell(90, 104, tempfail_probability=0.15),
                SmtpFaultSpell(120, 127, greylist=True),
            ),
            shard_crashes=(
                ShardCrashSpec(rank=1, failures=1, mode="crash"),
            ),
        )

    @classmethod
    def service_chaos_demo(cls, seed: int = 0,
                           lookups: int = 100_000) -> "FaultPlan":
        """A representative service-lane plan for ``serve-bench --chaos``.

        Windows scale with the served stream: an index-error burst deep
        enough to trip the circuit breaker into degraded (and briefly
        rules-only) serving, a scorer-stall storm that overloads the
        deterministic admission queue into load shedding, one
        memory-pressure memo shrink, and a mid-traffic churn delta
        exercising the two-phase index hot-swap under live lookups.
        """
        if lookups < 100:
            raise ValueError("service_chaos_demo needs lookups >= 100")
        tenth = lookups // 10
        return cls(
            seed=seed,
            service_spells=(
                ServiceFaultSpell(1 * tenth, 3 * tenth, "index_error",
                                  probability=0.6),
                ServiceFaultSpell(4 * tenth, 6 * tenth, "scorer_stall",
                                  probability=0.7, stall_ms=8.0),
                ServiceFaultSpell(7 * tenth, 7 * tenth + max(1, tenth // 8),
                                  "memory_pressure", probability=1.0),
                ServiceFaultSpell(8 * tenth, 8 * tenth + 1, "churn_delta",
                                  churn_day=30, churn_rate=0.01),
            ),
        )
