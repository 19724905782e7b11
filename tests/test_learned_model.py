"""The learned-detector model: artifact discipline, determinism, scoring.

Covers the ``repro-typo-model@1`` persistence contract (atomic save,
self-digest, the load error taxonomy), byte-identical training at any
worker count, and the vectorized scorer's invariants.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.features import DOMAIN_FEATURES, MESSAGE_FEATURES
from repro.learned import (
    LEARNED_MODEL_FORMAT,
    SCORE_THRESHOLD,
    evaluate_model,
    load_model,
    save_model,
    train_typo_model,
)
from repro.learned.model import model_digest
from repro.util.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
)

TINY_SEED = 707
TINY_RANKS = 300
TINY_DATASET = 40


@pytest.fixture(scope="module")
def tiny_model():
    model, stats = train_typo_model(TINY_SEED, ranks=TINY_RANKS,
                                    dataset_size=TINY_DATASET)
    return model, stats


def _mutated_copy(path, tmp_path, name, mutate, redigest=True):
    """Write a mutated artifact; re-digest by default so only the
    intended check fires, not the corruption check before it."""
    payload = json.loads(path.read_text())
    mutate(payload)
    if redigest:
        payload["digest"] = model_digest(payload)
    out = tmp_path / name
    out.write_text(json.dumps(payload))
    return out


class TestArtifact:
    def test_save_load_round_trip(self, tiny_model, tmp_path):
        model, stats = tiny_model
        path = tmp_path / "model.json"
        digest = save_model(model, str(path))
        assert digest == stats["model_digest"]
        loaded = load_model(str(path))
        assert loaded.digest() == model.digest()
        assert loaded.provenance == model.provenance

        rng = np.random.default_rng(9)
        Xd = rng.normal(size=(32, len(DOMAIN_FEATURES)))
        Xm = rng.normal(size=(32, len(MESSAGE_FEATURES)))
        assert np.array_equal(loaded.domain.scores(Xd),
                              model.domain.scores(Xd))
        assert np.array_equal(loaded.message.scores(Xm),
                              model.message.scores(Xm))

    def test_save_leaves_no_temp_files(self, tiny_model, tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))
        save_model(model, str(path))      # overwrite is atomic too
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    def test_flipped_byte_is_corrupt(self, tiny_model, tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))
        text = path.read_text()
        flipped = text.replace('"bias"', '"bIas"', 1)
        assert flipped != text
        path.write_text(flipped)
        with pytest.raises(CheckpointCorruptError):
            load_model(str(path))

    def test_torn_file_is_corrupt(self, tiny_model, tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))
        path.write_text(path.read_text()[:200])
        with pytest.raises(CheckpointCorruptError):
            load_model(str(path))

    def test_foreign_format_is_mismatch(self, tiny_model, tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))
        bad = _mutated_copy(
            path, tmp_path, "foreign.json",
            lambda p: p.__setitem__("format", "other-artifact@7"))
        with pytest.raises(CheckpointMismatchError):
            load_model(str(bad))

    def test_unknown_schema_version_is_config_error(self, tiny_model,
                                                    tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))
        bad = _mutated_copy(
            path, tmp_path, "schema.json",
            lambda p: p.__setitem__("schema_version", 99))
        with pytest.raises(ConfigError, match="schema"):
            load_model(str(bad))

    def test_drifted_feature_list_is_config_error(self, tiny_model,
                                                  tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))

        def drift(payload):
            payload["message"]["features"][0] = "brand_new_feature"

        bad = _mutated_copy(path, tmp_path, "drift.json", drift)
        with pytest.raises(ConfigError, match="feature list"):
            load_model(str(bad))

    def test_missing_lane_is_corrupt(self, tiny_model, tmp_path):
        model, _ = tiny_model
        path = tmp_path / "model.json"
        save_model(model, str(path))
        bad = _mutated_copy(path, tmp_path, "nolane.json",
                            lambda p: p.pop("domain"))
        with pytest.raises(CheckpointCorruptError):
            load_model(str(bad))

    def test_unknown_lane_accessor(self, tiny_model):
        model, _ = tiny_model
        assert model.lane("domain") is model.domain
        assert model.lane("message") is model.message
        with pytest.raises(ConfigError):
            model.lane("weather")


class TestTrainingDeterminism:
    def test_same_seed_any_jobs_byte_identical(self):
        # 1,100 ranks are two 1,024-wide ranges, so jobs 2 really splits
        one, _ = train_typo_model(808, ranks=1_100, dataset_size=50, jobs=1)
        two, _ = train_typo_model(808, ranks=1_100, dataset_size=50, jobs=2)
        assert one.digest() == two.digest()
        assert json.dumps(one.to_payload(), sort_keys=True) == \
            json.dumps(two.to_payload(), sort_keys=True)

    def test_different_seed_differs(self, tiny_model):
        model, _ = tiny_model
        other, _ = train_typo_model(TINY_SEED + 1, ranks=TINY_RANKS,
                                    dataset_size=TINY_DATASET)
        assert other.digest() != model.digest()

    def test_provenance_records_training_shape(self, tiny_model):
        model, stats = tiny_model
        prov = model.provenance
        assert prov["train_ranks"] == TINY_RANKS
        assert prov["train_dataset_size"] == TINY_DATASET
        assert prov["domain_rows"] > 0
        assert 0 < prov["domain_positives"] < prov["domain_rows"]
        assert prov["message_rows"] == TINY_DATASET * 4
        assert stats["model_digest"] == model.digest()


class TestScoring:
    def test_scores_are_probabilities(self, tiny_model):
        model, _ = tiny_model
        rng = np.random.default_rng(11)
        X = rng.normal(size=(64, len(DOMAIN_FEATURES)))
        s = model.domain.scores(X)
        assert s.shape == (64,)
        assert ((s > 0.0) & (s < 1.0)).all()

    def test_margins_batch_invariant(self, tiny_model):
        """Scoring a row alone or inside a batch yields the same margin —
        the vectorized path has no cross-row dependence."""
        model, _ = tiny_model
        rng = np.random.default_rng(12)
        X = rng.normal(size=(16, len(MESSAGE_FEATURES)))
        batch = model.message.margins(X)
        solo = np.array([model.message.margins(X[i:i + 1])[0]
                         for i in range(16)])
        # BLAS may reorder the matmul reduction between the (1,n) and
        # (16,n) shapes — equality holds to a few ulps, not bit-for-bit
        np.testing.assert_allclose(batch, solo, rtol=1e-12, atol=1e-12)

    def test_trained_lanes_separate_their_training_data(self, tiny_model):
        """Sanity, not a benchmark: on its own training distribution the
        model must beat coin-flipping by a wide margin."""
        from repro.learned.train import build_message_training_set

        model, _ = tiny_model
        X, y = build_message_training_set(TINY_SEED, TINY_DATASET)
        predicted = model.message.scores(X) >= SCORE_THRESHOLD
        accuracy = float((predicted == y.astype(bool)).mean())
        assert accuracy >= 0.9


class TestEvaluation:
    def test_metrics_digest_is_deterministic(self, tiny_model):
        model, _ = tiny_model
        kwargs = dict(dataset_size=40, domain_window=(301, 381),
                      max_rank=400)
        one = evaluate_model(model, TINY_SEED, **kwargs)
        two = evaluate_model(model, TINY_SEED, **kwargs)
        assert one.metrics_digest() == two.metrics_digest()
        assert one.model_digest == model.digest()

    def test_report_covers_all_corpora_and_detectors(self, tiny_model):
        model, _ = tiny_model
        report = evaluate_model(model, TINY_SEED, dataset_size=40,
                                domain_window=(301, 381), max_rank=400)
        assert len(report.corpora) >= 4
        for corpus in report.corpora:
            assert set(corpus.detectors) == {"learned", "funnel",
                                             "combined"}
        table = report.format_table()
        assert "learned" in table and "funnel" in table
        payload = report.to_payload()
        assert payload["domain"]["size"] > 0
        assert payload["domain_window"] == [301, 381]
        assert LEARNED_MODEL_FORMAT  # artifact tag stays importable
