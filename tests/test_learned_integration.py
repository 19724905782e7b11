"""The learned detector wired through the pipelines, service, CLI, doctor.

End-to-end coverage for the ``--detector`` lane: the verdict-overlay
semantics, study-level equivalence across drive modes, the risk engine's
``scorer="learned"`` hook with its rules fallback, the ``train`` /
``evaluate`` CLI round trip, and the doctor's ``typo-model`` kind.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiment import ExperimentConfig, StudyRunner
from repro.experiment.classify import apply_learned_detector
from repro.experiment.parallel import record_stream_digest
from repro.learned import save_model, train_typo_model
from repro.spamfilter.funnel import FilterResult, Verdict
from repro.util.errors import ConfigError

TINY_SEED = 707
STUDY_CONFIG = dict(seed=2016, spam_scale=2e-5)

#: record-stream digests of the learned-detector study (the
#: ``model_file`` model on ``STUDY_CONFIG``), pinned before the learned
#: overlay moved into the classify loop so that moving it can never
#: change a verdict; every mode emits the funnel run's 7,870 records
PINNED_LEARNED = {
    "learned": ("2a894833e02c10b1529b12f264dcb8e3be7b16460b457ca693397fa"
                "e4804f41a"),
    "both": ("ee4c39853b4c2437b70b7822c237ea6a29e5b0ea63eb1662e02690fb5a2"
             "59b7a"),
}
PINNED_LEARNED_COUNT = 7870


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    model, _ = train_typo_model(TINY_SEED, ranks=300, dataset_size=40)
    path = tmp_path_factory.mktemp("learned") / "model.json"
    save_model(model, str(path))
    return model, str(path)


def _result(verdict, reason="r"):
    return FilterResult(verdict, "receiver", None, reason)


class TestApplyLearnedDetector:
    def test_flagged_mail_becomes_spam_in_either_mode(self):
        for mode in ("learned", "both"):
            results = [_result(Verdict.TRUE_TYPO),
                       _result(Verdict.REFLECTION),
                       _result(Verdict.FREQUENCY_FILTERED)]
            adjusted = apply_learned_detector(results, [True, True, True],
                                              mode)
            assert [r.verdict for r in adjusted] == [Verdict.SPAM] * 3
            assert all(r.reason == "learned" and r.layer is None
                       for r in adjusted)

    def test_learned_mode_releases_disputed_funnel_spam(self):
        adjusted = apply_learned_detector(
            [_result(Verdict.SPAM, "zip attachment")], [False], "learned")
        assert adjusted[0].verdict is Verdict.TRUE_TYPO
        assert adjusted[0].reason == "learned-override"

    def test_both_mode_is_a_union(self):
        adjusted = apply_learned_detector(
            [_result(Verdict.SPAM, "zip attachment"),
             _result(Verdict.TRUE_TYPO)], [False, False], "both")
        assert adjusted[0].verdict is Verdict.SPAM
        assert adjusted[0].reason == "zip attachment"   # untouched
        assert adjusted[1].verdict is Verdict.TRUE_TYPO

    def test_unflagged_non_spam_survives_untouched(self):
        originals = [_result(Verdict.REFLECTION),
                     _result(Verdict.FREQUENCY_FILTERED)]
        adjusted = apply_learned_detector(originals, [False, False],
                                          "learned")
        assert adjusted == originals


class TestStudyIntegration:
    def test_detector_changes_verdicts_not_the_record_stream(
            self, model_file):
        _, path = model_file
        funnel = StudyRunner(ExperimentConfig(**STUDY_CONFIG)).run()
        learned = StudyRunner(ExperimentConfig(
            **STUDY_CONFIG, detector="learned", model_path=path)).run()
        assert len(funnel.records) == len(learned.records)
        # same mail stream: timestamps + ground truth line up 1:1
        for a, b in zip(funnel.records, learned.records):
            assert a.timestamp == b.timestamp
            assert a.study_domain == b.study_domain
            assert a.true_kind == b.true_kind
        reasons = {r.result.reason for r in learned.records}
        assert "learned" in reasons
        assert "learned-override" in reasons

    def test_learned_study_is_deterministic_and_jobs_invariant(
            self, model_file):
        _, path = model_file
        config = ExperimentConfig(**STUDY_CONFIG, detector="learned",
                                  model_path=path)
        serial = StudyRunner(config).run()
        parallel = StudyRunner(ExperimentConfig(
            **STUDY_CONFIG, detector="learned", model_path=path,
            classify_jobs=2)).run()
        assert record_stream_digest(serial.records) == \
            record_stream_digest(parallel.records)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("detector", ["learned", "both"])
    def test_learned_study_matches_pinned_digest(self, model_file,
                                                 detector, jobs):
        _, path = model_file
        results = StudyRunner(ExperimentConfig(
            **STUDY_CONFIG, detector=detector, model_path=path,
            classify_jobs=jobs)).run()
        assert len(results.records) == PINNED_LEARNED_COUNT
        assert record_stream_digest(results.records) == \
            PINNED_LEARNED[detector]

    def test_both_mode_spam_is_a_superset_of_funnel_spam(self, model_file):
        _, path = model_file
        funnel = StudyRunner(ExperimentConfig(**STUDY_CONFIG)).run()
        both = StudyRunner(ExperimentConfig(
            **STUDY_CONFIG, detector="both", model_path=path)).run()
        funnel_spam = {i for i, r in enumerate(funnel.records)
                       if r.result.verdict is Verdict.SPAM}
        both_spam = {i for i, r in enumerate(both.records)
                     if r.result.verdict is Verdict.SPAM}
        assert funnel_spam <= both_spam

    def test_streaming_plus_learned_is_rejected(self):
        with pytest.raises(ValueError, match="streaming"):
            ExperimentConfig(**STUDY_CONFIG, detector="learned",
                             model_path="x.json", streaming_classify=True)

    def test_unknown_detector_is_rejected(self):
        with pytest.raises(ValueError, match="detector"):
            ExperimentConfig(**STUDY_CONFIG, detector="oracle")

    def test_learned_detector_requires_a_model(self):
        config = ExperimentConfig(**STUDY_CONFIG, detector="learned")
        with pytest.raises(ConfigError, match="model"):
            StudyRunner(config).run()


class TestEngineLearnedScorer:
    @pytest.fixture(scope="class")
    def engines(self, model_file):
        from repro.service import RiskEngine, TypoRiskIndex

        model, _ = model_file
        index = TypoRiskIndex(TINY_SEED, 2_000)
        return (RiskEngine(index, scorer="learned", model=model),
                RiskEngine(TypoRiskIndex(TINY_SEED, 2_000)))

    def _registered_typo(self):
        from repro.ecosystem.world import WorldModel

        world = WorldModel(TINY_SEED)
        for rank in range(1, 50):
            for state in world.iter_rank_states(rank,
                                                world.rank_grid(rank)):
                return state.domain
        raise AssertionError("no registered typo in the first 50 ranks")

    def test_registered_typo_scored_by_model(self, engines):
        learned, _ = engines
        verdict = learned.lookup(self._registered_typo())
        assert verdict.source == "scorer"
        assert verdict.registered
        assert 0.0 < verdict.score < 1.0

    def test_clean_query_falls_back_to_rules(self, engines):
        learned, rules = engines
        query = "completely-unrelated-name.org"
        assert learned.lookup(query).canonical_dict() == \
            rules.lookup(query).canonical_dict()

    def test_learned_verdicts_deterministic(self, model_file):
        from repro.service import RiskEngine, TypoRiskIndex

        model, _ = model_file
        queries = [self._registered_typo(), "gmial.com", "clean.org"]
        runs = []
        for _ in range(2):
            engine = RiskEngine(TypoRiskIndex(TINY_SEED, 2_000),
                                scorer="learned", model=model)
            runs.append([engine.lookup(q).canonical_dict()
                         for q in queries])
        assert runs[0] == runs[1]

    def test_batch_lookup_matches_serial_for_learned(self, engines):
        learned, _ = engines
        queries = [self._registered_typo(), "gmial.com", "clean.org"] * 3
        batch = learned.batch_lookup(queries, jobs=4)   # stays serial
        serial = [learned.lookup(q) for q in queries]
        assert [v.canonical_dict() for v in batch] == \
            [v.canonical_dict() for v in serial]

    def test_scorer_validation(self, model_file):
        from repro.service import RiskEngine, TypoRiskIndex

        model, _ = model_file
        index = TypoRiskIndex(TINY_SEED, 500)
        with pytest.raises(ConfigError, match="scorer"):
            RiskEngine(index, scorer="psychic", model=model)
        with pytest.raises(ConfigError, match="model"):
            RiskEngine(index, scorer="learned")


class TestCliLearnedLane:
    def test_train_evaluate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["--seed", str(TINY_SEED), "train", "--out", str(out),
                     "--ranks", "300", "--dataset-size", "40"]) == 0
        printed = capsys.readouterr().out
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["digest"][:12] in printed

        assert main(["--seed", str(TINY_SEED), "evaluate",
                     "--model", str(out), "--dataset-size", "40"]) == 0
        table = capsys.readouterr().out
        assert "learned" in table and "funnel" in table

    def test_study_learned_without_model_exits_two(self, capsys):
        assert main(["study", "--detector", "learned"]) == 2
        assert "--model" in capsys.readouterr().err

    def test_study_streaming_learned_exits_two(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text("{}")
        assert main(["study", "--detector", "learned", "--model",
                     str(model), "--streaming"]) == 2
        assert "streaming" in capsys.readouterr().err

    def test_serve_bench_learned_without_model_exits_two(self, capsys):
        assert main(["serve-bench", "--ranks", "200", "--lookups", "50",
                     "--score-mode", "learned"]) == 2
        assert "--model" in capsys.readouterr().err


class TestDoctorTypoModel:
    def test_healthy_model_diagnosed(self, model_file, capsys):
        from repro.doctor import KIND_TYPO_MODEL, diagnose_file

        _, path = model_file
        diagnosis = diagnose_file(path)
        assert diagnosis.kind == KIND_TYPO_MODEL
        assert diagnosis.ok
        assert main(["doctor", path]) == 0
        assert "typo-model" in capsys.readouterr().out

    def test_corrupt_model_exits_three(self, model_file, tmp_path,
                                       capsys):
        _, path = model_file
        payload = json.loads(open(path).read())
        payload["domain"]["bias"] = 12.5       # digest now wrong
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        assert main(["doctor", str(bad)]) == 3
        assert "digest" in capsys.readouterr().out.lower()

    def test_foreign_schema_exits_two(self, model_file, tmp_path, capsys):
        from repro.learned.model import model_digest

        _, path = model_file
        payload = json.loads(open(path).read())
        payload["schema_version"] = 99
        payload["digest"] = model_digest(payload)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        assert main(["doctor", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "schema" in out and "\n" not in out.strip()

    def test_torn_model_falls_back_to_name(self, model_file, tmp_path):
        from repro.doctor import KIND_TYPO_MODEL, diagnose_file

        _, path = model_file
        torn = tmp_path / "typo-model.json"
        torn.write_text(open(path).read()[:120])
        diagnosis = diagnose_file(str(torn))
        assert diagnosis.kind == KIND_TYPO_MODEL
        assert not diagnosis.ok
        assert diagnosis.exit_code == 3
