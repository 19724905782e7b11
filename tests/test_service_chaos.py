"""Resilient serving under injected faults: replay, shedding, degrade.

The acceptance contract of the chaos serving layer: the same ``(seed,
fault plan, workload)`` triple yields byte-identical verdict streams —
including ``shed``/``degraded``/``rules_only`` source labels — across
runs and ``--jobs`` counts; an empty service-spell plan is pinned
byte-identical to the fault-free engine; faults degrade answers, never
raise; and shedding follows the policy order (review-queue bookkeeping
before the scorer, the O(1) fast paths never).
"""

from dataclasses import asdict

import pytest

from repro.faultsim import FaultPlan, ServiceFaultSpell
from repro.service import (
    AdmissionPolicy,
    HealthPolicy,
    LookupWorkload,
    ResilientServer,
    RiskEngine,
    TypoRiskIndex,
    run_serve_chaos_bench,
    verdict_stream_digest,
)

pytestmark = pytest.mark.chaos

SEED = 606
MAX_RANK = 700
LOOKUPS = 2500

DEMO_PLAN = FaultPlan.service_chaos_demo(seed=SEED, lookups=LOOKUPS)


@pytest.fixture(scope="module")
def index():
    return TypoRiskIndex(SEED, MAX_RANK)


@pytest.fixture(scope="module")
def queries(index):
    workload = LookupWorkload(SEED, MAX_RANK, pool_size=192,
                              world=index.world)
    return list(workload.queries(LOOKUPS))


def serve(plan, queries, *, jobs=None, admission=None, health=None):
    engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
    server = ResilientServer(engine, plan, admission=admission,
                             health=health)
    verdicts = server.batch_lookup(queries, jobs=jobs)
    return server, verdicts


class TestEmptyPlanIdentity:
    def test_no_plan_is_byte_identical_to_the_engine(self, index, queries):
        engine = RiskEngine(index)
        baseline = verdict_stream_digest(
            engine.lookup(q) for q in queries)
        engine.clear_verdict_memo()
        server = ResilientServer(RiskEngine(TypoRiskIndex(SEED, MAX_RANK)))
        assert verdict_stream_digest(
            server.lookup(q) for q in queries) == baseline

    def test_plan_without_service_spells_delegates(self, queries):
        # scan/study spells do not touch the serving lane
        plan = FaultPlan.chaos_demo(SEED)
        assert not plan.service_spells
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        baseline = verdict_stream_digest(
            RiskEngine(TypoRiskIndex(SEED, MAX_RANK)).lookup(q)
            for q in queries[:600])
        server = ResilientServer(engine, plan)
        assert verdict_stream_digest(
            server.lookup(q) for q in queries[:600]) == baseline


class TestReplayDeterminism:
    def test_serial_replay_is_byte_identical(self, queries):
        _, first = serve(DEMO_PLAN, queries)
        _, second = serve(DEMO_PLAN, queries)
        assert verdict_stream_digest(first) == verdict_stream_digest(second)

    def test_jobs_fanout_is_byte_identical_to_serial(self, queries):
        serial_server, serial = serve(DEMO_PLAN, queries)
        fanned_server, fanned = serve(DEMO_PLAN, queries, jobs=2)
        assert [v.canonical_json() for v in fanned] == \
            [v.canonical_json() for v in serial]
        # the resident state folds back serial-identically too
        assert fanned_server.engine.cache_stats() == \
            serial_server.engine.cache_stats()
        assert [v.query for v in fanned_server.engine.review_queue] == \
            [v.query for v in serial_server.engine.review_queue]
        assert fanned_server.report() == serial_server.report()

    def test_chaos_stream_exercises_every_lane(self, queries):
        server, verdicts = serve(DEMO_PLAN, queries)
        sources = {v.source for v in verdicts}
        assert {"scorer", "degraded", "rules_only", "shed"} <= sources
        # resilience invariant: every lookup answered, none dropped
        assert len(verdicts) == len(queries)
        assert server.stats.answered == len(queries)

    def test_workload_digest_pins_the_stream(self, index):
        workload = LookupWorkload(SEED, MAX_RANK, pool_size=192,
                                  world=index.world)
        assert workload.stream_digest(500) == workload.stream_digest(500)
        assert workload.stream_digest(500) != workload.stream_digest(501)


class TestDegradedModes:
    def test_error_burst_trips_breaker_down_to_rules_only(self, queries):
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(100, 400, "index_error", probability=1.0),))
        server, verdicts = serve(plan, queries[:800])
        health = server.report()["health"]
        assert health["tripped"] == 2
        states = [t[2] for t in health["transitions"]]
        assert states[:2] == ["degraded", "rules_only"]
        assert any(v.source == "rules_only" for v in verdicts)

    def test_breaker_recovers_after_clean_run(self, queries):
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(50, 120, "index_error", probability=1.0),))
        health_policy = HealthPolicy(trip_errors=3, window=20,
                                     recovery_lookups=60)
        server, _ = serve(plan, queries, health=health_policy)
        report = server.report()["health"]
        assert report["state"] == "healthy"
        assert report["recovered"] == report["tripped"]

    def test_degraded_verdicts_are_conservative_and_labeled(self, queries):
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(0, 2500, "index_error", probability=0.4),))
        server, verdicts = serve(plan, queries)
        floor = server.health_policy.floor_tier
        degraded = [v for v in verdicts
                    if v.source in ("degraded", "rules_only")]
        assert degraded, "the burst must force degraded answers"
        for verdict in degraded:
            # never an exception, always an answer at the floor tier
            # (or an explicit unrelated/allow from degraded retrieval)
            assert verdict.verdict in ("typo_risk", "unrelated")
            if verdict.verdict == "typo_risk":
                assert verdict.tier == floor

    def test_fast_paths_survive_every_fault_mode(self, index):
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(0, 10_000, "index_error", probability=1.0),
            ServiceFaultSpell(0, 10_000, "scorer_stall",
                              probability=1.0, stall_ms=100.0),))
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        server = ResilientServer(engine, plan)
        for _ in range(300):
            verdict = server.lookup("gmail.com")
            assert (verdict.verdict, verdict.source) == ("clean", "exact")
            assert server.lookup("").verdict == "invalid"


class TestLoadShedding:
    def test_stall_overload_sheds_the_scorer(self, queries):
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(0, 2500, "scorer_stall",
                              probability=1.0, stall_ms=50.0),))
        server, verdicts = serve(plan, queries)
        report = server.report()["admission"]
        assert report["shed_lookups"] > 0
        shed = [v for v in verdicts if v.source == "shed"]
        assert len(shed) == report["shed_lookups"]
        floor = server.health_policy.floor_tier
        for verdict in shed[:50]:
            assert verdict.tier == floor

    def test_reviews_shed_before_the_scorer(self, queries):
        """Policy order: level 1 (bookkeeping) engages below level 2."""
        from repro.defenses import RiskPolicy

        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(0, 2500, "scorer_stall",
                              probability=1.0, stall_ms=3.0),))
        # depth ramps slowly through the level-1 band: reviews shed
        # while the scorer still answers
        admission = AdmissionPolicy(drain_ms=2.0, review_shed_depth=10.0,
                                    scorer_shed_depth=10_000.0)
        engine = RiskEngine(
            TypoRiskIndex(SEED, MAX_RANK),
            policy=RiskPolicy(critical=0.99, high=0.98, medium=0.97,
                              review=0.01))
        server = ResilientServer(engine, plan, admission=admission)
        verdicts = [server.lookup(q) for q in queries]
        report = server.report()["admission"]
        assert report["shed_reviews"] > 0
        assert report["shed_lookups"] == 0  # scorer never shed
        # the verdicts themselves are full-quality scorer answers
        assert all(v.source != "shed" for v in verdicts)
        # review verdicts computed while shedding stayed out of the queue
        review_verdicts = sum(1 for v in verdicts if v.action == "review")
        assert len(engine.review_queue) < review_verdicts

    def test_shedding_relieves_the_modeled_backlog(self, queries):
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(0, 1000, "scorer_stall",
                              probability=1.0, stall_ms=50.0),))
        server, _ = serve(plan, queries)
        # after the spell window the backlog drains back to zero
        assert server.report()["admission"]["depth_ms"] == 0.0


class TestFaultInvisibility:
    def test_memory_pressure_is_invisible_in_verdicts(self, queries):
        base = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(200, 900, "scorer_stall",
                              probability=0.5, stall_ms=4.0),))
        with_pressure = FaultPlan(seed=SEED, service_spells=(
            base.service_spells[0],
            ServiceFaultSpell(300, 700, "memory_pressure",
                              probability=1.0),))
        _, plain = serve(base, queries)
        server, squeezed = serve(with_pressure, queries)
        assert verdict_stream_digest(plain) == \
            verdict_stream_digest(squeezed)
        assert server.stats.memo_shrinks > 0

    def test_mid_traffic_churn_swap_matches_fresh_engine(self, queries):
        from repro.ecosystem.delta import ChurnSchedule

        day, rate = 30, 0.01
        plan = FaultPlan(seed=SEED, service_spells=(
            ServiceFaultSpell(500, 501, "churn_delta",
                              churn_day=day, churn_rate=rate),))
        server, verdicts = serve(plan, queries)
        assert server.stats.churn_swaps == 1
        assert server.engine.index.day == day
        # verdicts after the swap match an engine born on the evolved world
        schedule = ChurnSchedule(SEED, MAX_RANK, daily_rate=rate)
        evolved = RiskEngine(TypoRiskIndex(
            SEED, MAX_RANK, churn=schedule.generations(day), day=day))
        post = [evolved.lookup(q).canonical_json() for q in queries[500:]]
        assert [v.canonical_json() for v in verdicts[500:]] == post


class TestChaosBench:
    def test_bench_replays_and_reports_lanes(self):
        first = run_serve_chaos_bench(SEED, MAX_RANK, lookups=1200,
                                      pool_size=128)
        second = run_serve_chaos_bench(SEED, MAX_RANK, lookups=1200,
                                       pool_size=128)
        assert first.verdict_digest == second.verdict_digest
        assert first.dropped == 0
        assert first.lane_counts == second.lane_counts
        assert set(first.lane_counts) >= {"full", "rules_only"}
        entry = asdict(first)   # what the chaos bench records
        assert entry["lookups"] == 1200
        assert entry["plan_digest"] == \
            FaultPlan.service_chaos_demo(SEED, lookups=1200).digest()
