"""End-to-end study simulation: configuration, runner, and validation."""

from repro.experiment.classify import (
    ClassifyContext,
    StreamingClassifier,
    classify_corpus_records,
    partition_messages_by_day,
)
from repro.experiment.config import ExperimentConfig
from repro.experiment.parallel import (
    RangeRun,
    RecordDigestSink,
    ScanCheckpoint,
    ShardOutcome,
    ShardRetryPolicy,
    StudySample,
    derive_child_seeds,
    parallel_map,
    pool_fallback_count,
    record_content_digest,
    record_multiset_digest,
    record_stream_digest,
    run_ranges,
    run_resilient_scan,
    run_sharded_scan,
    run_study_sample,
    run_study_samples,
)
from repro.experiment.checkpoint import (
    STUDY_JOURNAL_FORMAT,
    StudyCheckpoint,
    config_identity,
)
from repro.experiment.runner import (
    DurableStudyOutcome,
    StudyResults,
    StudyRunner,
    run_durable_study,
)
from repro.experiment.sweep import (
    HeadlineDistribution,
    SweepSummary,
    run_seed_sweep,
)
from repro.experiment.validation import (
    SampledValidation,
    validate_receiver_typos_at_smtp_domains,
    validate_survivors_by_sampling,
)

__all__ = [
    "ExperimentConfig",
    "StudyRunner",
    "StudyResults",
    "ClassifyContext",
    "StreamingClassifier",
    "classify_corpus_records",
    "partition_messages_by_day",
    "RecordDigestSink",
    "record_content_digest",
    "record_multiset_digest",
    "SampledValidation",
    "validate_survivors_by_sampling",
    "validate_receiver_typos_at_smtp_domains",
    "run_seed_sweep",
    "SweepSummary",
    "HeadlineDistribution",
    "StudySample",
    "run_study_sample",
    "run_study_samples",
    "derive_child_seeds",
    "parallel_map",
    "record_stream_digest",
    "run_ranges",
    "run_sharded_scan",
    "pool_fallback_count",
    "ShardRetryPolicy",
    "ShardOutcome",
    "RangeRun",
    "ScanCheckpoint",
    "run_resilient_scan",
    "STUDY_JOURNAL_FORMAT",
    "StudyCheckpoint",
    "config_identity",
    "DurableStudyOutcome",
    "run_durable_study",
]
