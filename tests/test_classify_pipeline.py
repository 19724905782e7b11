"""Equivalence and determinism tests for the two-stage classify pipeline.

The bar is byte-identity: however the classify stage is driven — batch
serial, batch parallel (any jobs count), or day-streamed inside the
window loop — the emitted :class:`CollectedRecord` stream must hash to
the same ``record_stream_digest``.  The bounded-memory and sink modes,
which drop the raw originals, are held to the content digests instead
(every analysis-visible field, minus the back-reference).
"""

import dataclasses

import pytest

from repro.experiment import (
    ExperimentConfig,
    RecordDigestSink,
    StudyRunner,
    partition_messages_by_day,
    record_content_digest,
    record_multiset_digest,
    record_stream_digest,
)
from repro.pipeline import tokenize
from repro.smtpsim import Attachment, EmailMessage
from repro.spamfilter import FilterFunnel, FunnelConfig, Verdict
from repro.spamfilter.funnel import SummaryFold

OUR = ["gmial.com", "ohtlook.com"]

#: record-stream digests of the pre-refactor serial classifier, pinned so
#: the two-stage pipeline can never drift from the original output
PINNED_SMALL = ("cefa68b87b987e9e04e35a6418f90a715f30e595057bed80fd65ebfec"
                "6e62289")
PINNED_SMALL_COUNT = 7870
PINNED_LARGE = ("adda05b005153f69573765eb51ab18dce658888fa0ff7357927e1af65"
                "9984b56")
PINNED_LARGE_COUNT = 16406

BASE_CONFIG = ExperimentConfig(seed=2016, spam_scale=2e-5)


def _tok(from_addr="alice@real.org", to_addr="bob@gmial.com",
         subject="lunch", body="see you at noon", attachments=None):
    message = EmailMessage.create(from_addr, to_addr, subject, body,
                                  attachments=attachments)
    message.headers.insert(
        0, ("Received", "from sender by gmial.com (1.2.3.4)"))
    return tokenize(message)


def _spam_tok(**kwargs):
    kwargs.setdefault("from_addr", "win@lucky.top")
    kwargs.setdefault("attachments", [Attachment("deal.zip", b"PK")])
    return _tok(**kwargs)


# -- funnel-mode equivalence (no study harness) -------------------------------


class TestFunnelModeEquivalence:
    def _mixed_corpus(self):
        emails = []
        for index in range(12):
            emails.append(_tok(from_addr=f"person{index}@real.org",
                               body=f"note number {index} about lunch"))
            if index % 3 == 0:
                emails.append(_spam_tok(
                    from_addr=f"spammer{index}@lucky.top"))
        return emails

    @pytest.mark.perfsmoke
    def test_batch_equals_day_streamed_fold(self):
        emails = self._mixed_corpus()
        batch = FilterFunnel(OUR).classify_corpus(emails)

        streamed_funnel = FilterFunnel(OUR)
        fold = SummaryFold(streamed_funnel)
        # feed in uneven "days" — grouping must not matter
        for start in range(0, len(emails), 5):
            for email in emails[start:start + 5]:
                fold.feed(streamed_funnel.summarize(email))
        streamed = fold.finalize()
        assert streamed == batch

    @pytest.mark.perfsmoke
    def test_stage_a_summaries_transplant_across_funnels(self):
        # parallel shape: summaries produced by config-only worker funnels,
        # folded by a separate stateful funnel
        emails = self._mixed_corpus()
        batch = FilterFunnel(OUR).classify_corpus(emails)

        worker_a, worker_b = FilterFunnel(OUR), FilterFunnel(OUR)
        half = len(emails) // 2
        summaries = ([worker_a.summarize(e) for e in emails[:half]]
                     + [worker_b.summarize(e) for e in emails[half:]])
        fold = SummaryFold(FilterFunnel(OUR))
        for summary in summaries:
            fold.feed(summary)
        assert fold.finalize() == batch

    @pytest.mark.perfsmoke
    def test_retroactive_collaborative_pass(self):
        # a clean-looking email from a sender who later sends spam must be
        # condemned retroactively, with the reason prefix intact
        early = _tok(from_addr="campaign@lucky.top",
                     body="totally ordinary note about schedules")
        late_spam = _spam_tok(from_addr="campaign@lucky.top")
        bystander = _tok(from_addr="friend@real.org")

        emails = [early, late_spam, bystander]
        for results in (
                FilterFunnel(OUR).classify_corpus(emails),
                self._fold_results(emails)):
            assert results[1].verdict is Verdict.SPAM
            assert results[1].layer == 2
            assert results[0].verdict is Verdict.SPAM
            assert results[0].layer == 3
            assert results[0].reason.startswith("(retroactive) ")
            assert results[2].verdict is Verdict.TRUE_TYPO

    def _fold_results(self, emails):
        funnel = FilterFunnel(OUR)
        fold = SummaryFold(funnel)
        for email in emails:
            fold.feed(funnel.summarize(email))
        return fold.finalize()

    @pytest.mark.perfsmoke
    def test_layer5_content_threshold_edge(self):
        config = FunnelConfig(content_frequency_threshold=10)
        body = "please reset the conference room projector"

        def run(copies):
            emails = [_tok(from_addr=f"p{i}@real.org",
                           to_addr=f"user{i}@gmial.com", body=body)
                      for i in range(copies)]
            return FilterFunnel(OUR, config=config).classify_corpus(emails)

        below = run(9)
        assert all(r.verdict is Verdict.TRUE_TYPO for r in below)
        at = run(10)
        assert all(r.verdict is Verdict.FREQUENCY_FILTERED for r in at)
        assert all(r.reason == "identical body seen 10 times" for r in at)
        # the fold agrees at the exact edge
        funnel = FilterFunnel(OUR, config=config)
        fold = SummaryFold(funnel)
        for email in [_tok(from_addr=f"p{i}@real.org",
                           to_addr=f"user{i}@gmial.com", body=body)
                      for i in range(10)]:
            fold.feed(funnel.summarize(email))
        assert fold.finalize() == at

    def test_fold_rejects_use_after_finalize(self):
        funnel = FilterFunnel(OUR)
        fold = SummaryFold(funnel)
        fold.feed(funnel.summarize(_tok()))
        fold.finalize()
        with pytest.raises(RuntimeError):
            fold.finalize()
        with pytest.raises(RuntimeError):
            fold.feed(funnel.summarize(_tok()))


# -- chunk partitioning -------------------------------------------------------


class TestPartitioning:
    @pytest.mark.perfsmoke
    def test_chunks_are_day_aligned_and_order_preserving(self):
        messages = []
        for day in range(7):
            for index in range(day + 1):
                message = EmailMessage(received_at=day * 86_400 + index)
                messages.append(message)
        chunks = partition_messages_by_day(messages, jobs=3)
        flattened = [m for chunk in chunks for m in chunk]
        assert flattened == messages
        days_seen = set()
        for chunk in chunks:
            chunk_days = {int(m.received_at // 86_400) for m in chunk}
            assert not (chunk_days & days_seen)   # no day spans two chunks
            days_seen |= chunk_days

    def test_empty_corpus(self):
        assert partition_messages_by_day([], jobs=4) == []


# -- study-level digest identity ----------------------------------------------


@pytest.fixture(scope="module")
def batch_results():
    return StudyRunner(BASE_CONFIG).run()


@pytest.fixture(scope="module")
def batch_digest(batch_results):
    return record_stream_digest(batch_results.records)


class TestStudyDigests:
    @pytest.mark.perfsmoke
    def test_fault_free_single_job_path_matches_pinned_output(
            self, batch_results, batch_digest):
        assert len(batch_results.records) == PINNED_SMALL_COUNT
        assert batch_digest == PINNED_SMALL

    @pytest.mark.slow
    def test_pinned_output_large_no_outage(self):
        config = ExperimentConfig(seed=7, spam_scale=1e-4, outage_spans=())
        results = StudyRunner(config).run()
        assert len(results.records) == PINNED_LARGE_COUNT
        assert record_stream_digest(results.records) == PINNED_LARGE

    @pytest.mark.perfsmoke
    def test_streaming_classify_is_byte_identical(self, batch_digest):
        config = dataclasses.replace(BASE_CONFIG, streaming_classify=True)
        results = StudyRunner(config).run()
        assert record_stream_digest(results.records) == batch_digest

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_classify_is_byte_identical(self, batch_digest, jobs):
        config = dataclasses.replace(BASE_CONFIG, classify_jobs=jobs)
        results = StudyRunner(config).run()
        assert record_stream_digest(results.records) == batch_digest

    @pytest.mark.perfsmoke
    def test_bounded_memory_matches_content_digest(self, batch_results):
        config = dataclasses.replace(BASE_CONFIG, streaming_classify=True,
                                     retain_messages=False)
        results = StudyRunner(config).run()
        assert len(results.records) == len(batch_results.records)
        assert all(r.tokenized.original is None for r in results.records)
        assert (record_content_digest(results.records)
                == record_content_digest(batch_results.records))

    @pytest.mark.perfsmoke
    def test_sink_mode_matches_multiset_digest(self, batch_results):
        config = dataclasses.replace(BASE_CONFIG, streaming_classify=True,
                                     retain_messages=False)
        sink = RecordDigestSink()
        results = StudyRunner(config).run(record_sink=sink)
        assert results.records == []
        assert sink.count == len(batch_results.records)
        assert sink.digest() == record_multiset_digest(batch_results.records)
        assert sink.true_typo_count == sum(
            1 for r in batch_results.records if r.is_true_typo)

    def test_sink_requires_streaming(self):
        with pytest.raises(ValueError):
            StudyRunner(BASE_CONFIG).run(record_sink=lambda record: None)


class TestSequenceAttribution:
    @pytest.mark.perfsmoke
    def test_every_record_carries_ground_truth(self, batch_results):
        assert all(r.true_kind is not None for r in batch_results.records)

    @pytest.mark.perfsmoke
    def test_sequences_are_monotone_in_stream_order(self, batch_results):
        sequences = [r.tokenized.original.sequence
                     for r in batch_results.records]
        assert all(s is not None for s in sequences)
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_sequence_excluded_from_equality_and_repr(self):
        stamped = EmailMessage(body="x", received_at=1.0)
        stamped.sequence = 17
        unstamped = EmailMessage(body="x", received_at=1.0)
        assert stamped == unstamped
        assert repr(stamped) == repr(unstamped)


class TestConfigValidation:
    def test_bounded_memory_requires_streaming(self):
        with pytest.raises(ValueError):
            ExperimentConfig(retain_messages=False)

    def test_classify_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(classify_jobs=0)

    def test_streaming_rejects_classify_jobs(self):
        # the streaming loop classifies each one-day chunk inline, so
        # workers would never be used
        with pytest.raises(ValueError, match="classify_jobs"):
            ExperimentConfig(streaming_classify=True, classify_jobs=2)
        ExperimentConfig(streaming_classify=True, classify_jobs=1)
