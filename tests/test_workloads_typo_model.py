"""Tests for the typing-mistake model (Pt, Pc, E_ij)."""

import pytest

from repro.core import EMAIL_TARGETS, TypoGenerator
from repro.workloads import (
    TypingMistakeModel,
    TypoModelConfig,
    calibrate_global_volume,
)


@pytest.fixture(scope="module")
def model():
    return TypingMistakeModel()


@pytest.fixture(scope="module")
def generator():
    return TypoGenerator()


class TestMistypeProbability:
    def test_probabilities_sum_to_base_rate(self, model, generator):
        candidates = generator.generate("gmail.com")
        total = sum(model.mistype_probability(c) for c in candidates)
        assert total == pytest.approx(model.config.base_typo_probability)

    def test_deletion_beats_addition(self, model, generator):
        """Figure 9: deletion typos are far more frequent than additions."""
        candidates = generator.generate("gmail.com")
        deletions = [model.mistype_probability(c) for c in candidates
                     if c.edit_type == "deletion"]
        additions = [model.mistype_probability(c) for c in candidates
                     if c.edit_type == "addition"]
        mean_deletion = sum(deletions) / len(deletions)
        mean_addition = sum(additions) / len(additions)
        assert mean_deletion > 2 * mean_addition

    def test_fat_finger_substitution_beats_random(self, model, generator):
        candidates = [c for c in generator.generate("gmail.com")
                      if c.edit_type == "substitution"]
        ff = [model.mistype_probability(c) for c in candidates if c.is_fat_finger]
        non_ff = [model.mistype_probability(c) for c in candidates
                  if not c.is_fat_finger]
        assert min(ff) > max(non_ff)

    def test_nonnegative(self, model, generator):
        for candidate in generator.generate("chase.com"):
            assert model.mistype_probability(candidate) >= 0


class TestCorrectionProbability:
    def test_bounded(self, model, generator):
        config = model.config
        for candidate in generator.generate("outlook.com"):
            pc = model.correction_probability(candidate)
            assert config.correction_floor <= pc <= config.correction_ceiling

    def test_visible_mistakes_corrected_more(self, model, generator):
        """outlo0k (invisible) must be corrected less than outmook (visible)."""
        invisible = generator.annotate("outlook.com", "outlo0k.com")
        visible = generator.annotate("outlook.com", "outmook.com")
        assert model.correction_probability(invisible) < \
            model.correction_probability(visible)

    def test_zero_visual_at_floor(self, model, generator):
        candidates = generator.generate("outlook.com")
        least_visible = min(candidates, key=lambda c: c.normalized_visual)
        pc = model.correction_probability(least_visible)
        assert pc < model.config.correction_floor + 0.2


class TestExpectedVolume:
    def test_monotone_in_target_volume(self, model, generator):
        candidate = generator.annotate("gmail.com", "gmial.com")
        low = model.expected_yearly_emails(1e6, candidate)
        high = model.expected_yearly_emails(1e8, candidate)
        assert high == pytest.approx(low * 100)

    def test_low_visual_wins_for_same_target(self, model, generator):
        """The paper's core finding: visual distance dominates."""
        invisible = generator.annotate("outlook.com", "outlo0k.com")
        visible = generator.annotate("outlook.com", "oxtlook.com")
        assert model.expected_yearly_emails(1e8, invisible) > \
            model.expected_yearly_emails(1e8, visible)


class TestCalibration:
    def test_calibrated_volume_hits_target(self, model, generator):
        targets = {t.name: t for t in EMAIL_TARGETS}
        candidates = (generator.generate("gmail.com")[:40]
                      + generator.generate("outlook.com")[:40])
        volume = calibrate_global_volume(candidates, targets, model,
                                         desired_total_yearly=5000.0)
        total = sum(
            model.expected_yearly_emails(
                volume * targets[c.target].email_share, c)
            for c in candidates)
        assert total == pytest.approx(5000.0, rel=1e-6)

    def test_empty_corpus_rejected(self, model):
        targets = {t.name: t for t in EMAIL_TARGETS}
        with pytest.raises(ValueError):
            calibrate_global_volume([], targets, model, 5000.0)

    def test_config_override(self, generator):
        config = TypoModelConfig(base_typo_probability=0.1)
        model = TypingMistakeModel(config=config)
        candidates = generator.generate("gmail.com")
        total = sum(model.mistype_probability(c) for c in candidates)
        assert total == pytest.approx(0.1)


@pytest.mark.perfsmoke
class TestTotalWeight:
    """``_total_weight`` sums the raw weights from the edit ops alone;
    it must equal the sum over the built candidates exactly."""

    @pytest.mark.parametrize("fat_finger_only", [False, True])
    def test_equals_the_candidate_sum(self, fat_finger_only):
        generator = TypoGenerator(fat_finger_only=fat_finger_only)
        model = TypingMistakeModel(generator=generator)
        for target in EMAIL_TARGETS:
            expected = sum(model._raw_weight(c)
                           for c in generator.generate(target.name))
            assert model._total_weight(target.name) == expected, target.name

    def test_custom_weights_and_multiplier(self):
        config = TypoModelConfig(
            edit_type_weights={"deletion": 1.25, "addition": 0.1},
            fat_finger_multiplier=7.5)
        generator = TypoGenerator()
        model = TypingMistakeModel(config, generator)
        for target in EMAIL_TARGETS:
            expected = sum(model._raw_weight(c)
                           for c in generator.generate(target.name))
            assert model._total_weight(target.name) == expected, target.name
