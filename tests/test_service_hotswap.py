"""Crash-safe index hot-swap: two-phase generation publish.

``RiskEngine.hot_swap`` builds the evolved index generation aside,
persists it atomically (when an artifact path is resident), and only
then publishes it with a single attribute assignment.  A SIGKILL at any
point therefore leaves a doctor-valid ``repro-risk-index@1`` artifact
on disk — either generation — and the recovery protocol (load, re-apply
the delta, serve) lands byte-identical to the run that never crashed.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.distances import classify_edit
from repro.core.typogen import apply_edit, enumerate_edit_ops
from repro.doctor import diagnose_file
from repro.ecosystem.delta import ChurnSchedule
from repro.service import LookupWorkload, RiskEngine, TypoRiskIndex

pytestmark = pytest.mark.chaos

SEED = 606
MAX_RANK = 400
DAY = 30

SCHEDULE = ChurnSchedule(seed=SEED, max_rank=MAX_RANK, daily_rate=0.02)


def _registered(index, rank):
    """The one-edit typos of the rank's target that ``index`` answers
    as registered."""
    label, _ = index.world.target_parts(rank)
    return {typo for typo in (apply_edit(label, *op)
                              for op in enumerate_edit_ops(label))
            if index.is_registered_typo(typo, rank,
                                         classify_edit(label, typo))}


@pytest.fixture(scope="module")
def probes():
    index = TypoRiskIndex(SEED, MAX_RANK)
    workload = LookupWorkload(SEED, MAX_RANK, pool_size=96,
                              world=index.world)
    return workload.pool_entries()


class TestGenerationBuild:
    def test_evolved_generation_leaves_the_old_index_untouched(self):
        old = TypoRiskIndex(SEED, MAX_RANK)
        before = old.canonical_dict()
        new, changed = old.evolved_generation(SCHEDULE, DAY)
        assert changed > 0
        assert old.canonical_dict() == before
        assert old.epoch == 0 and old.day == 0
        assert (new.epoch, new.day) == (old.epoch + 1, DAY)

    def test_new_generation_matches_a_fresh_build(self):
        new, _ = TypoRiskIndex(SEED, MAX_RANK).evolved_generation(
            SCHEDULE, DAY)
        fresh = TypoRiskIndex(SEED, MAX_RANK,
                              churn=SCHEDULE.generations(DAY), day=DAY)
        assert new.canonical_dict() == fresh.canonical_dict()

    def test_new_generation_answers_registration_like_a_fresh_index(self):
        """Churned and unchurned ranks alike, while the old generation
        keeps answering for the old day."""
        old = TypoRiskIndex(SEED, MAX_RANK)
        churned = set(SCHEDULE.generations(DAY))
        kept = [rank for rank in range(1, MAX_RANK + 1)
                if rank not in churned][:4]
        sample = kept + sorted(churned)[:8]
        before = {rank: _registered(old, rank) for rank in sample}
        new, _ = old.evolved_generation(SCHEDULE, DAY)
        fresh = TypoRiskIndex(SEED, MAX_RANK,
                              churn=SCHEDULE.generations(DAY), day=DAY)
        for rank in sample:
            assert _registered(new, rank) == _registered(fresh, rank)
            assert _registered(old, rank) == before[rank]
        assert all(_registered(new, rank) == before[rank] for rank in kept)
        assert any(_registered(new, rank) != before[rank]
                   for rank in sorted(churned)[:8])


class TestHotSwap:
    def test_swap_serves_like_a_fresh_engine(self, probes):
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        for query in probes[:20]:
            engine.lookup(query)
        assert engine.hot_swap(SCHEDULE, DAY) > 0
        fresh = RiskEngine(TypoRiskIndex(
            SEED, MAX_RANK, churn=SCHEDULE.generations(DAY), day=DAY))
        for query in probes:
            assert engine.lookup(query).canonical_json() == \
                fresh.lookup(query).canonical_json()

    def test_swap_bumps_the_epoch_and_clears_the_memo(self):
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        engine.lookup("gmial.com")
        epoch = engine.index.epoch
        engine.hot_swap(SCHEDULE, DAY)
        assert engine.index.epoch == epoch + 1
        assert engine.cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_empty_delta_is_a_no_op_swap(self):
        engine = RiskEngine(TypoRiskIndex(
            SEED, MAX_RANK, churn=SCHEDULE.generations(DAY), day=DAY))
        engine.lookup("gmial.com")
        warm = engine.cache_stats()
        index = engine.index
        hook_calls = []
        assert engine.hot_swap(SCHEDULE, DAY,
                               phase_hook=hook_calls.append) == 0
        assert engine.index is index          # nothing published
        assert hook_calls == []               # nothing even built
        assert engine.cache_stats() == warm

    def test_artifact_round_trip_across_the_swap(self, tmp_path, probes):
        path = tmp_path / "risk.index"
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        engine.hot_swap(SCHEDULE, DAY, artifact_path=path)
        loaded = RiskEngine(TypoRiskIndex.load(path))
        assert loaded.index.canonical_dict() == \
            engine.index.canonical_dict()
        for query in probes[:40]:
            assert loaded.lookup(query).canonical_json() == \
                engine.lookup(query).canonical_json()

    def test_phase_hooks_fire_in_two_phase_order(self, tmp_path):
        phases = []
        engine = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        engine.hot_swap(SCHEDULE, DAY,
                        artifact_path=tmp_path / "risk.index",
                        phase_hook=phases.append)
        assert phases == ["built", "saved"]


class TestTornSwap:
    """SIGKILL a real subprocess mid-swap; prove either generation
    on disk is doctor-valid and recovery matches the uncrashed run."""

    CHILD_SCRIPT = """
import os
import signal
import sys
from repro.ecosystem.delta import ChurnSchedule
from repro.service import RiskEngine, TypoRiskIndex

artifact, crash_phase = sys.argv[1], sys.argv[2]
engine = RiskEngine(TypoRiskIndex(606, 400))
engine.index.save(artifact)          # generation 0 is durable

def hook(phase):
    if phase == crash_phase:
        os.kill(os.getpid(), signal.SIGKILL)

schedule = ChurnSchedule(seed=606, max_rank=400, daily_rate=0.02)
engine.hot_swap(schedule, 30, artifact_path=artifact, phase_hook=hook)
"""

    def _crash_mid_swap(self, artifact, crash_phase):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src", env.get("PYTHONPATH", "")])
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD_SCRIPT,
             str(artifact), crash_phase],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            returncode = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
        assert returncode == -signal.SIGKILL, \
            f"child survived the {crash_phase!r} crash point"

    @pytest.mark.parametrize("crash_phase,expected_day", [
        ("built", 0),    # old generation still published on disk
        ("saved", DAY),  # new generation durable, publish torn
    ])
    def test_torn_swap_heals_to_the_uncrashed_verdicts(
            self, tmp_path, probes, crash_phase, expected_day):
        artifact = tmp_path / "risk.index"
        self._crash_mid_swap(artifact, crash_phase)

        # whichever generation survived, the artifact is doctor-valid
        diagnosis = diagnose_file(artifact)
        assert diagnosis.ok, diagnosis.detail
        assert diagnosis.kind == "risk-index"
        assert json.loads(artifact.read_text())["day"] == expected_day

        # recovery protocol: load, re-apply the delta, serve
        healed = RiskEngine(TypoRiskIndex.load(artifact))
        healed.hot_swap(SCHEDULE, DAY, artifact_path=artifact)
        assert healed.index.day == DAY
        assert diagnose_file(artifact).ok

        uncrashed = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
        uncrashed.hot_swap(SCHEDULE, DAY)
        for query in probes[:60]:
            assert healed.lookup(query).canonical_json() == \
                uncrashed.lookup(query).canonical_json()

    def test_wait_for_sentinel_then_kill_leaves_valid_artifact(
            self, tmp_path):
        """The non-cooperative variant: kill from outside while the
        child loops hot swaps, then doctor whatever is on disk."""
        artifact = tmp_path / "risk.index"
        script = """
import sys
from repro.ecosystem.delta import ChurnSchedule
from repro.service import RiskEngine, TypoRiskIndex

artifact = sys.argv[1]
engine = RiskEngine(TypoRiskIndex(606, 400))
schedule = ChurnSchedule(seed=606, max_rank=400, daily_rate=0.02)
day = 0
while True:
    day += 1
    engine.hot_swap(schedule, day, artifact_path=artifact)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src", env.get("PYTHONPATH", "")])
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(artifact)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not artifact.exists() and time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            assert artifact.exists(), "child never wrote an artifact"
            time.sleep(0.2)          # land mid-swap, not at a boundary
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            returncode = child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        assert returncode == -signal.SIGKILL
        diagnosis = diagnose_file(artifact)
        assert diagnosis.ok, diagnosis.detail
        # and the survivor loads into a serving engine
        engine = RiskEngine(TypoRiskIndex.load(artifact))
        assert engine.lookup("gmial.com").verdict == "typo_risk"
