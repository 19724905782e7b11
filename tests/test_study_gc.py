"""A study run leaves no cyclic garbage.

``StudyRunner.run`` pauses the cyclic collector for the whole run and
relies on refcounting alone to free what it drops.  That is only sound
while the run builds no reference cycles, so each of the three study
modes runs here with the collector off, and a collection afterwards
must find nothing unreachable:

* batch classify;
* streaming classify into a ``RecordDigestSink`` with checkpoints;
* batch classify under ``FaultPlan.chaos_demo``.
"""

import gc

import pytest

from repro.experiment import ExperimentConfig, RecordDigestSink, StudyRunner
from repro.faultsim.plan import (
    FaultPlan,
    InjectedStudyCrash,
    StudyCrashSpec,
)

SMALL = dict(seed=41, spam_scale=1e-5, ham_scale=0.3, outage_spans=())


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _unreachable_after(run) -> int:
    gc.collect()
    results = run()
    assert results.sent_count > 0
    return gc.collect()


@pytest.mark.perfsmoke
class TestStudyRunIsAcyclic:
    def test_batch(self, collector_off):
        config = ExperimentConfig(**SMALL)
        assert _unreachable_after(StudyRunner(config).run) == 0

    def test_streaming_sink_with_checkpoints(self, collector_off, tmp_path):
        config = ExperimentConfig(streaming_classify=True,
                                  retain_messages=False, **SMALL)
        sink = RecordDigestSink()
        assert _unreachable_after(lambda: StudyRunner(config).run(
            record_sink=sink, checkpoint_path=tmp_path / "study.ckpt",
            checkpoint_interval=21)) == 0
        assert sink.count > 0

    def test_chaos_plan(self, collector_off):
        config = ExperimentConfig(fault_plan=FaultPlan.chaos_demo(5),
                                  **SMALL)
        assert _unreachable_after(StudyRunner(config).run) == 0

    def test_a_crashed_run_restores_the_collector(self, tmp_path):
        plan = FaultPlan(study_crashes=(StudyCrashSpec(day=3, failures=1),))
        config = ExperimentConfig(fault_plan=plan, **SMALL)
        assert gc.isenabled()
        with pytest.raises(InjectedStudyCrash):
            StudyRunner(config).run(checkpoint_path=tmp_path / "study.ckpt")
        assert gc.isenabled()
