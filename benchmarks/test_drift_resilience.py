"""Drift-resilience trajectory — the living-internet lane's speed gates.

The perfsmoke/chaos lane times the three moving parts of the drift
story and records them into the ``drift_resilience`` section of
``BENCH_perf.json``:

* **drill** — the end-to-end detect → shadow-retrain → gated-promote
  cycle (``run_drift_drill``), recording train and cycle wall-clock and
  asserting the scripted outcome: the campaign trips the monitor, the
  candidate promotes, and post-promote recall recovers the pre-drift
  floor.
* **scenario stepping** — ``ScenarioDriver`` day-loop overhead (steps
  per second over a multi-year timeline); this is pure bookkeeping that
  rides inside every study day, so it must stay orders of magnitude
  cheaper than the day itself.
* **chaos serving with the learned scorer** — the demo fault plan over
  a ``scorer="learned"`` engine, holding the zero-drop / zero-exception
  invariant while recording lookups per second.

First recording becomes the regression baseline; later runs fail when
any lane falls more than 2x below it.
The whole lane is budgeted under 60 seconds.
"""

from __future__ import annotations

import time

import pytest

from repro.faultsim import FaultPlan
from repro.learned import run_drift_drill, train_typo_model
from repro.scenario import ScenarioDriver, drift_drill_scenario
from repro.service import (
    LookupWorkload,
    ResilientServer,
    RiskEngine,
    TypoRiskIndex,
)
from repro.util.perf import record_bench, throughput

from test_perf_baseline import BENCH_PATH, REGRESSION_FACTOR

SEED = 41
MAX_RANK = 700
SCENARIO_DAYS = 2_000
LOOKUPS = 2_000

#: absolute floors, far under measured rates so timer noise cannot
#: flake them; the trajectory gates do the real work
MIN_SCENARIO_STEPS_PER_SEC = 200.0
MIN_CHAOS_QPS = 1_000.0
MAX_LANE_SECONDS = 60.0


@pytest.mark.perfsmoke
@pytest.mark.chaos
def test_drift_resilience_floor(tmp_path):
    lane_start = time.perf_counter()

    # -- the drill: campaign -> trip -> retrain -> gated promote ------
    report = run_drift_drill(tmp_path, SEED, train_ranks=300,
                             train_dataset_size=40)
    assert report["decision"]["action"] == "promote"
    assert report["decision"]["drift"]["tripped"]
    assert report["window_recall_after"] >= \
        report["pre_drift_recall"] - 1e-9
    assert not report["disagreement"]["rolled_back"]

    # -- scenario stepping: day-loop bookkeeping overhead -------------
    driver = ScenarioDriver(drift_drill_scenario(SEED))
    start = time.perf_counter()
    driver.run(SCENARIO_DAYS)
    step_seconds = time.perf_counter() - start
    steps_per_sec = throughput(SCENARIO_DAYS, step_seconds)

    # -- chaos serving over the learned scorer ------------------------
    model, _ = train_typo_model(SEED, ranks=300, dataset_size=40)
    index = TypoRiskIndex(SEED, MAX_RANK)
    queries = list(LookupWorkload(SEED, MAX_RANK, pool_size=192,
                                  world=index.world).queries(LOOKUPS))
    plan = FaultPlan.service_chaos_demo(seed=SEED, lookups=LOOKUPS)
    server = ResilientServer(
        RiskEngine(index, scorer="learned", model=model), plan)
    start = time.perf_counter()
    verdicts = server.batch_lookup(queries)
    serve_seconds = time.perf_counter() - start
    qps = throughput(LOOKUPS, serve_seconds)
    # zero drops, zero exceptions: every query answered with a verdict
    assert len(verdicts) == len(queries)
    assert server.stats.answered == len(queries)

    lane_seconds = time.perf_counter() - lane_start
    print(f"\ndrill: train {report['train_seconds']:.2f}s  cycle "
          f"{report['cycle_seconds']:.2f}s  -> "
          f"{report['decision']['action']}")
    print(f"scenario: {SCENARIO_DAYS:,} days in {step_seconds:.2f}s "
          f"({steps_per_sec:,.0f} steps/s)")
    print(f"learned chaos serve: {qps:,.0f} lookups/s  "
          f"(lane total {lane_seconds:.1f}s)")

    entry = {
        "seed": SEED,
        "train_seconds": round(report["train_seconds"], 3),
        "cycle_seconds": round(report["cycle_seconds"], 3),
        "decision": report["decision"]["action"],
        "active_digest": report["active_digest"],
        "scenario_days": SCENARIO_DAYS,
        "scenario_steps_per_sec": round(steps_per_sec, 1),
        "chaos_lookups": LOOKUPS,
        "chaos_qps": round(qps, 1),
        "dropped": len(queries) - server.stats.answered,
        "lane_seconds": round(lane_seconds, 2),
    }
    section = record_bench(BENCH_PATH, "drift_resilience", entry)

    # acceptance floors
    assert entry["dropped"] == 0, (
        f"learned chaos serving dropped {entry['dropped']} lookups — "
        "the resilient server must answer every query")
    assert lane_seconds < MAX_LANE_SECONDS, (
        f"drift-resilience lane took {lane_seconds:.1f}s "
        f"(budget {MAX_LANE_SECONDS}s)")
    assert steps_per_sec >= MIN_SCENARIO_STEPS_PER_SEC
    assert qps >= MIN_CHAOS_QPS

    # trajectory gates against the recorded baseline
    baseline = section["baseline"]
    assert entry["cycle_seconds"] <= max(
        baseline["cycle_seconds"] * REGRESSION_FACTOR, 1.0), (
        f"lifecycle cycle regressed: {entry['cycle_seconds']:.2f}s vs "
        f"baseline {baseline['cycle_seconds']:.2f}s (gate "
        f"{REGRESSION_FACTOR}x) — if this slowdown is intended, delete "
        "the drift_resilience section of BENCH_perf.json to re-baseline")
    assert steps_per_sec >= (
        baseline["scenario_steps_per_sec"] / REGRESSION_FACTOR), (
        f"scenario stepping regressed: {steps_per_sec:,.0f} steps/s vs "
        f"baseline {baseline['scenario_steps_per_sec']:,.0f}/s "
        f"(gate {REGRESSION_FACTOR}x)")
    assert qps >= baseline["chaos_qps"] / REGRESSION_FACTOR, (
        f"learned chaos serving regressed: {qps:,.0f}/s vs baseline "
        f"{baseline['chaos_qps']:,.0f}/s (gate {REGRESSION_FACTOR}x)")
