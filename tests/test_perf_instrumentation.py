"""Perf observability: timers/counters on results, and the registry.

Every study run carries its own perf snapshot (phase timers, event
counters, throughput) so slow phases are visible without a profiler;
:mod:`repro.util.perf` is the dependency-free registry underneath.
"""

from __future__ import annotations

import json

import pytest

from repro.experiment import ExperimentConfig, StudyRunner
from repro.util.perf import PerfRegistry, throughput

CHEAP = ExperimentConfig(seed=77, spam_scale=1e-5, ham_scale=0.5,
                         outage_spans=())


@pytest.fixture(scope="module")
def results():
    return StudyRunner(CHEAP).run()


class TestStudyPerfSnapshot:
    def test_phase_timers_populated(self, results):
        timers = results.perf["timers"]
        for phase in ("run", "provision", "build_generators", "generate",
                      "deliver", "classify"):
            assert timers[phase]["calls"] >= 1
            assert timers[phase]["seconds"] >= 0.0
        # the run timer wraps every phase
        phases_sum = sum(timers[p]["seconds"]
                         for p in ("provision", "build_generators",
                                   "generate", "deliver", "classify"))
        assert timers["run"]["seconds"] >= phases_sum * 0.95

    def test_counters_match_headline_numbers(self, results):
        counters = results.perf["counters"]
        assert counters["emails.sent"] == results.sent_count
        assert counters["emails.delivered"] == results.delivered_count
        assert counters["records"] == len(results.records)
        assert counters["deliver.body_bytes"] > 0

    def test_throughput_present_and_consistent(self, results):
        rates = results.perf["throughput"]
        run_seconds = results.perf["timers"]["run"]["seconds"]
        assert rates["emails_sent_per_sec"] == pytest.approx(
            results.sent_count / run_seconds)
        assert rates["emails_delivered_per_sec"] == pytest.approx(
            results.delivered_count / run_seconds)

    def test_snapshot_is_json_serialisable(self, results):
        assert json.loads(json.dumps(results.perf)) == results.perf


class TestPerfRegistry:
    def test_timer_accumulates_across_entries(self):
        perf = PerfRegistry()
        for _ in range(3):
            with perf.timer("phase"):
                pass
        assert perf.timers["phase"].calls == 3
        assert perf.seconds("phase") >= 0.0
        assert perf.seconds("never-used") == 0.0

    def test_timer_records_on_exception(self):
        perf = PerfRegistry()
        with pytest.raises(RuntimeError):
            with perf.timer("boom"):
                raise RuntimeError("x")
        assert perf.timers["boom"].calls == 1

    def test_counters_accumulate(self):
        perf = PerfRegistry()
        perf.count("events")
        perf.count("events", 41)
        assert perf.counters["events"] == 42

    def test_merge_folds_both_kinds(self):
        a, b = PerfRegistry(), PerfRegistry()
        with a.timer("t"):
            pass
        with b.timer("t"):
            pass
        a.count("n", 1)
        b.count("n", 2)
        a.merge(b)
        assert a.timers["t"].calls == 2
        assert a.counters["n"] == 3

    def test_snapshot_extra_rides_along(self):
        perf = PerfRegistry()
        perf.count("n", 5)
        snap = perf.snapshot(extra={"throughput": {"x": 1.0}})
        assert snap["counters"] == {"n": 5}
        assert snap["throughput"] == {"x": 1.0}

    def test_throughput_degenerate_denominator(self):
        assert throughput(100, 0.0) == 0.0
        assert throughput(100, -1.0) == 0.0
        assert throughput(100, 4.0) == 25.0


class TestBenchTraceHooks:
    """The bench harness's traced run wraps program entry points by name.

    ``perfbench/spans.py`` lists them as ``(owner, attribute)`` pairs;
    a rename in the program would only surface as a crash of a traced
    bench run, so installing and uninstalling the tracer here proves
    every listed entry point still resolves.
    """

    @pytest.fixture(scope="class")
    def spans(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("_bench_spans", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_entry_point_wraps_and_restores(self, spans):
        def raw_attributes():
            for spec, attr, _ in spans.ENTRY_POINTS:
                owner = spans._resolve(spec)
                yield (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))

        before = list(raw_attributes())
        tracer = spans.Tracer()
        tracer.install()
        try:
            wrapped = list(raw_attributes())
        finally:
            tracer.uninstall()
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
        assert all(a is b for a, b in zip(raw_attributes(), before))
