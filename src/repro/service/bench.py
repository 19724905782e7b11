"""The million-lookup serving benchmark behind ``repro serve-bench``.

Builds the resident index + engine, generates a seeded mixed workload
(:class:`~repro.service.workload.LookupWorkload`), optionally verifies a
parity sample against the brute-force scan path, warms the pools, then
times every lookup individually: p50/p95/p99 latency, sustained QPS,
index build time, and cache hit rates.  The result feeds the
human-readable CLI report; the perfsmoke benchmarks record it, as
``dataclasses.asdict(result)``, into ``BENCH_perf.json`` through
:func:`repro.util.perf.record_bench`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.ecosystem.internet import InternetConfig
from repro.faultsim.plan import FaultPlan
from repro.service.engine import AdmissionPolicy, RiskEngine
from repro.service.health import (
    HealthPolicy,
    ResilientServer,
    verdict_stream_digest,
)
from repro.service.index import TypoRiskIndex
from repro.service.workload import LookupWorkload, WorkloadMix
from repro.util.perf import PerfRegistry, paused_gc, throughput

__all__ = ["ServeBenchResult", "ParityError", "run_serve_bench",
           "ChaosBenchResult", "run_serve_chaos_bench"]

#: verdict source -> serving lane, for per-lane latency buckets; the
#: fault-free sources all belong to the full lane
_SOURCE_LANES = {
    "rules": "full", "exact": "full", "index": "full", "scorer": "full",
    "degraded": "degraded", "rules_only": "rules_only", "shed": "shed",
}


class ParityError(AssertionError):
    """A service verdict diverged from the brute-force scan path."""


@dataclass
class ServeBenchResult:
    """Everything one serving run measured."""

    seed: int
    max_rank: int
    lookups: int
    pool_size: int
    distinct_queries: int
    score_mode: str
    build_seconds: float
    workload_seconds: float
    warmup_seconds: float
    wall_seconds: float
    qps: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float
    parity_checked: int
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    #: the verdicts of the brute-force parity sample
    parity_verdicts: Dict[str, int] = field(default_factory=dict)
    action_counts: Dict[str, int] = field(default_factory=dict)
    engine_cache: Dict[str, int] = field(default_factory=dict)

    @property
    def engine_hit_rate(self) -> float:
        total = self.engine_cache.get("hits", 0) + self.engine_cache.get(
            "misses", 0)
        return self.engine_cache.get("hits", 0) / total if total else 0.0

    def report_lines(self) -> List[str]:
        verdicts = ", ".join(f"{name}={count}" for name, count
                             in sorted(self.verdict_counts.items()))
        parity = ", ".join(f"{name}={count}" for name, count
                           in sorted(self.parity_verdicts.items()))
        return [
            f"serve-bench: seed={self.seed} ranks={self.max_rank} "
            f"lookups={self.lookups} (distinct {self.distinct_queries}) "
            f"scorer={self.score_mode}",
            f"  index build   {self.build_seconds * 1e3:8.1f} ms",
            f"  workload gen  {self.workload_seconds * 1e3:8.1f} ms",
            f"  warmup        {self.warmup_seconds * 1e3:8.1f} ms",
            f"  serving       {self.wall_seconds:8.3f} s   "
            f"({self.qps:,.0f} lookups/s)",
            f"  latency p50   {self.p50_us:8.2f} us",
            f"  latency p95   {self.p95_us:8.2f} us",
            f"  latency p99   {self.p99_us:8.2f} us "
            f"(max {self.max_us:,.0f} us)",
            f"  verdict memo  {self.engine_hit_rate * 100:7.2f} % hits "
            f"({self.engine_cache.get('hits', 0)} hits / "
            f"{self.engine_cache.get('misses', 0)} misses)",
            f"  verdicts      {verdicts}",
            f"  parity checks {self.parity_checked} vs brute-force scan "
            f"({parity})",
        ]


def run_serve_bench(seed: int = 606, max_rank: int = 100_000, *,
                    lookups: int = 1_000_000,
                    pool_size: int = 4096,
                    warmup: bool = True,
                    parity: int = 0,
                    config: Optional[InternetConfig] = None,
                    mix: Optional[WorkloadMix] = None,
                    engine: Optional[RiskEngine] = None,
                    score_mode: str = "rules",
                    model=None,
                    perf: Optional[PerfRegistry] = None) -> ServeBenchResult:
    """Serve ``lookups`` mixed queries and measure the hot path.

    ``parity`` additionally re-answers that many distinct pool queries,
    taken with an even stride across the clean, typo, registered-typo
    and junk pools, through the brute-force all-targets scan and
    demands byte-identical verdicts (raising :class:`ParityError` on
    the first divergence) — the acceptance check that the index is pure
    acceleration.  A prebuilt ``engine`` (e.g. loaded from a
    ``repro-risk-index@1`` artifact) skips index construction; its
    build time is then the artifact load time already paid by the
    caller.

    ``score_mode="learned"`` serves layer 4 through the domain-lane
    model (requires ``model``); the brute-force parity contract holds in
    either mode since retrieval, not scoring, is what parity varies.
    """
    start = perf_counter()
    if engine is None:
        index = TypoRiskIndex(seed, max_rank, config=config, perf=perf)
        engine = RiskEngine(index,
                            max_cached_verdicts=max(1 << 15, 8 * pool_size),
                            scorer=score_mode, model=model,
                            perf=perf)
    else:
        index = engine.index
        seed, max_rank = index.seed, index.max_rank
        score_mode = engine.scorer
    build_seconds = perf_counter() - start

    start = perf_counter()
    workload = LookupWorkload(seed, max_rank, config=config,
                              pool_size=pool_size, mix=mix,
                              world=index.world)
    queries = list(workload.queries(lookups))
    workload_seconds = perf_counter() - start

    distinct = workload.pool_entries()
    parity_checked = 0
    parity_verdicts: Dict[str, int] = {}
    if parity > 0:
        stride = max(1, len(distinct) // parity)
        for query in distinct[::stride][:parity]:
            verdict = engine.lookup(query)
            fast = verdict.canonical_json()
            slow = engine.lookup_bruteforce(query).canonical_json()
            if fast != slow:
                raise ParityError(
                    f"verdict for {query!r} diverges from the "
                    f"brute-force scan:\n  index: {fast}\n  scan:  {slow}")
            parity_checked += 1
            parity_verdicts[verdict.verdict] = parity_verdicts.get(
                verdict.verdict, 0) + 1

    lookup = engine.lookup
    start = perf_counter()
    if warmup:
        for query in distinct:
            lookup(query)
    warmup_seconds = perf_counter() - start

    latencies = np.empty(len(queries), dtype=np.float64)
    timer = perf_counter
    if perf is None:
        perf = PerfRegistry()
    with paused_gc():
        wall_start = timer()
        for position, query in enumerate(queries):
            t0 = timer()
            lookup(query)
            latencies[position] = timer() - t0
        wall_seconds = timer() - wall_start
    perf.add_seconds("service.serve", wall_seconds)
    perf.count("service.lookups", len(queries))

    p50, p95, p99 = np.percentile(latencies, (50.0, 95.0, 99.0)) * 1e6
    verdict_counts: Dict[str, int] = {}
    action_counts: Dict[str, int] = {}
    for query in queries:
        verdict = lookup(query)
        verdict_counts[verdict.verdict] = verdict_counts.get(
            verdict.verdict, 0) + 1
        action_counts[verdict.action] = action_counts.get(
            verdict.action, 0) + 1
    return ServeBenchResult(
        seed=seed, max_rank=max_rank, lookups=len(queries),
        pool_size=pool_size, distinct_queries=len(distinct),
        score_mode=score_mode,
        build_seconds=build_seconds, workload_seconds=workload_seconds,
        warmup_seconds=warmup_seconds, wall_seconds=wall_seconds,
        qps=throughput(len(queries), wall_seconds),
        p50_us=float(p50), p95_us=float(p95), p99_us=float(p99),
        max_us=float(latencies.max() * 1e6),
        parity_checked=parity_checked, parity_verdicts=parity_verdicts,
        verdict_counts=verdict_counts, action_counts=action_counts,
        engine_cache=engine.cache_stats())


@dataclass
class ChaosBenchResult:
    """Everything one chaos serving run measured and replayed."""

    seed: int
    max_rank: int
    lookups: int
    plan_digest: str
    wall_seconds: float
    qps: float
    verdict_digest: str
    lane_counts: Dict[str, int] = field(default_factory=dict)
    lane_qps: Dict[str, float] = field(default_factory=dict)
    lane_p50_us: Dict[str, float] = field(default_factory=dict)
    lane_p99_us: Dict[str, float] = field(default_factory=dict)
    dropped: int = 0
    shed_lookups: int = 0
    shed_reviews: int = 0
    degraded_lookups: int = 0
    rules_only_lookups: int = 0
    tripped: int = 0
    recovered: int = 0
    churn_swaps: int = 0
    final_state: str = "healthy"
    injected: Dict[str, object] = field(default_factory=dict)
    source_counts: Dict[str, int] = field(default_factory=dict)

    def report_lines(self) -> List[str]:
        lanes = ", ".join(
            f"{lane}={count}" for lane, count
            in sorted(self.lane_counts.items()))
        lane_rates = ", ".join(
            f"{lane}={self.lane_qps.get(lane, 0.0):,.0f}/s "
            f"p99={self.lane_p99_us.get(lane, 0.0):.1f}us"
            for lane in sorted(self.lane_counts))
        return [
            f"serve-bench --chaos: seed={self.seed} "
            f"ranks={self.max_rank} lookups={self.lookups} "
            f"plan={self.plan_digest[:12]}",
            f"  serving       {self.wall_seconds:8.3f} s   "
            f"({self.qps:,.0f} lookups/s, {self.dropped} dropped)",
            f"  lanes         {lanes}",
            f"  lane rates    {lane_rates}",
            f"  shedding      {self.shed_lookups} lookups, "
            f"{self.shed_reviews} review enqueues",
            f"  health        tripped={self.tripped} "
            f"recovered={self.recovered} final={self.final_state} "
            f"churn_swaps={self.churn_swaps}",
            f"  replay digest {self.verdict_digest}",
        ]


def run_serve_chaos_bench(seed: int = 606, max_rank: int = 100_000, *,
                          lookups: int = 200_000,
                          pool_size: int = 4096,
                          plan: Optional[FaultPlan] = None,
                          config: Optional[InternetConfig] = None,
                          mix: Optional[WorkloadMix] = None,
                          admission: Optional[AdmissionPolicy] = None,
                          health: Optional[HealthPolicy] = None,
                          perf: Optional[PerfRegistry] = None
                          ) -> ChaosBenchResult:
    """Serve a mixed workload through the resilient server under a
    fault plan, measuring each lane separately.

    ``plan`` defaults to :meth:`FaultPlan.service_chaos_demo` sized to
    ``lookups``.  Every lookup is timed individually and bucketed by
    serving lane (full / degraded / rules_only / shed), and the whole
    verdict stream is digested — the replay acceptance check is that
    the digest is invariant across runs and ``--jobs`` counts.  No
    lookup is ever dropped; ``dropped`` is recorded (and floored at
    zero by the perfsmoke gate) rather than assumed.
    """
    if plan is None:
        plan = FaultPlan.service_chaos_demo(seed=seed, lookups=lookups)
    index = TypoRiskIndex(seed, max_rank, config=config, perf=perf)
    engine = RiskEngine(index,
                        max_cached_verdicts=max(1 << 15, 8 * pool_size),
                        perf=perf)
    server = ResilientServer(engine, plan, admission=admission,
                             health=health, perf=perf)
    workload = LookupWorkload(seed, max_rank, config=config,
                              pool_size=pool_size, mix=mix,
                              world=index.world)
    queries = list(workload.queries(lookups))

    lookup = server.lookup
    latencies = np.empty(len(queries), dtype=np.float64)
    lanes: List[str] = []
    verdicts = []
    timer = perf_counter
    with paused_gc():
        wall_start = timer()
        for position, query in enumerate(queries):
            t0 = timer()
            verdict = lookup(query)
            latencies[position] = timer() - t0
            lanes.append(_SOURCE_LANES.get(verdict.source, verdict.source))
            verdicts.append(verdict)
        wall_seconds = timer() - wall_start
    if perf is not None:
        perf.add_seconds("service.chaos_serve", wall_seconds)
        perf.count("service.chaos_lookups", len(queries))

    lane_array = np.array(lanes)
    lane_counts: Dict[str, int] = {}
    lane_qps: Dict[str, float] = {}
    lane_p50: Dict[str, float] = {}
    lane_p99: Dict[str, float] = {}
    for lane in sorted(set(lanes)):
        mask = lane_array == lane
        lane_latencies = latencies[mask]
        count = int(mask.sum())
        lane_counts[lane] = count
        lane_seconds = float(lane_latencies.sum())
        lane_qps[lane] = throughput(count, lane_seconds)
        p50, p99 = np.percentile(lane_latencies, (50.0, 99.0)) * 1e6
        lane_p50[lane] = float(p50)
        lane_p99[lane] = float(p99)

    report = server.report()
    by_source = report["served"]["by_source"]
    return ChaosBenchResult(
        seed=seed, max_rank=max_rank, lookups=len(queries),
        plan_digest=plan.digest(),
        wall_seconds=wall_seconds,
        qps=throughput(len(queries), wall_seconds),
        verdict_digest=verdict_stream_digest(verdicts),
        lane_counts=lane_counts, lane_qps=lane_qps,
        lane_p50_us=lane_p50, lane_p99_us=lane_p99,
        dropped=len(queries) - report["served"]["answered"],
        shed_lookups=report["admission"]["shed_lookups"],
        shed_reviews=report["admission"]["shed_reviews"],
        degraded_lookups=by_source.get("degraded", 0),
        rules_only_lookups=by_source.get("rules_only", 0),
        tripped=report["health"]["tripped"],
        recovered=report["health"]["recovered"],
        churn_swaps=report["served"]["churn_swaps"],
        final_state=report["health"]["state"],
        injected=dict(report["injected"]),
        source_counts=dict(by_source))
