"""The study's two-stage classification pipeline (batch, parallel, streaming).

``StudyRunner._classify`` historically tokenized and classified the whole
delivered corpus serially, after the window loop, with everything held in
memory.  This module splits that work along the funnel's stage boundary
(see :mod:`repro.spamfilter.funnel`):

* **Stage A** — pure per-message work: tokenize, Layer-1/2/4 evaluation
  via :meth:`FilterFunnel.summarize`, study-domain attribution, and (in
  the parallel path) speculative scrub/processing.  Pure means it can be
  fanned over a :class:`ProcessPoolExecutor` in deterministic day-ordered
  batches, or run day-by-day inside the window loop.
* **Stage B** — the serial stateful fold (:class:`SummaryFold`): the
  collaborative database, corpus-wide frequencies, and the retroactive
  pass, consuming stage-A summaries in arrival order.

Because stage B always sees summaries in arrival order, the emitted
:class:`CollectedRecord` stream is byte-identical across the serial,
parallel (any ``jobs``), and day-streamed drivers — pinned by
``record_stream_digest`` in the classify-pipeline tests.

The bounded-memory variant (:class:`StreamingClassifier` with
``retain_messages=False``) drops each raw message once its summary is
taken (``tokenize(..., retain_original=False)``) and keeps only compact
per-survivor state for the retroactive pass; with a ``record_sink`` it
emits terminal records as they are decided and retains nothing at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.records import CollectedRecord
from repro.core.taxonomy import TypoEmailKind
from repro.pipeline.processor import EmailProcessor
from repro.pipeline.tokenizer import TokenizedEmail, tokenize
from repro.smtpsim.message import EmailMessage
from repro.spamfilter.funnel import (
    FilterFunnel,
    FilterResult,
    FunnelConfig,
    MessageSummary,
    SummaryFold,
    Verdict,
)
from repro.util.journal import Appended
from repro.util.perf import PerfRegistry, paused_gc
from repro.util.pool import parallel_map

__all__ = [
    "ClassifyContext",
    "StageAItem",
    "StageAChunk",
    "StageAChunkResult",
    "run_stage_a_chunk",
    "partition_messages_by_day",
    "apply_learned_detector",
    "classify_corpus_records",
    "StreamingClassifier",
]

RecordSink = Callable[[CollectedRecord], None]

SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class ClassifyContext:
    """Everything stage A needs, picklable so workers can rebuild it.

    ``our_domains`` keeps the corpus iteration order — suffix attribution
    scans suffixes in that order, and the serial implementation's
    first-match semantics must be preserved exactly.  ``ip_to_domain``
    replaces the collection infrastructure's linear
    :meth:`~repro.infra.provisioning.CollectionInfrastructure.domain_for_ip`
    scan with a prebuilt first-match dict.
    """

    our_domains: Tuple[str, ...]
    ip_to_domain: Dict[str, Optional[str]] = field(default_factory=dict)
    funnel_config: Optional[FunnelConfig] = None
    enabled_layers: Tuple[int, ...] = (1, 2, 3, 4, 5)
    process_non_spam: bool = True
    retain_original: bool = True
    #: build the message-lane feature matrix alongside each stage-A chunk
    #: (the learned detector's featurization rides the same pool fan-out)
    featurize: bool = False

    def build_funnel(self) -> FilterFunnel:
        return FilterFunnel(self.our_domains, config=self.funnel_config,
                            enabled_layers=self.enabled_layers)

    @staticmethod
    def ip_map(infra) -> Dict[str, str]:
        """First-match ip→domain dict equivalent to ``domain_for_ip``."""
        mapping: Dict[str, str] = {}
        for domain, ip in infra.domain_to_ip.items():
            mapping.setdefault(ip, domain)
        return mapping


class _Attribution:
    """The researchers' domain attribution (no ground truth), hoisted.

    Receiver candidates attribute by recipient domain; SMTP candidates
    only by the VPS IP the mail arrived on — the paper's one-to-one IP
    mapping exists for exactly this.  Match order (exact domain, then
    suffixes in corpus order) mirrors the serial implementation.
    """

    __slots__ = ("domain_set", "suffixes", "suffix_of", "ip_to_domain")

    def __init__(self, our_domains: Sequence[str],
                 ip_to_domain: Dict[str, str]) -> None:
        self.domain_set = frozenset(our_domains)
        self.suffix_of = {"." + d: d for d in our_domains}
        self.suffixes = tuple(self.suffix_of)
        self.ip_to_domain = ip_to_domain

    def study_domain(self, tok: TokenizedEmail,
                     kind: str) -> Optional[str]:
        if kind == "receiver":
            for recipient in tok.metadata.envelope_to:
                domain = recipient.rpartition("@")[2].lower()
                if domain in self.domain_set:
                    return domain
                if domain.endswith(self.suffixes):
                    # rare path: recover *which* suffix matched, in the
                    # corpus order the serial implementation used
                    for suffix in self.suffixes:
                        if domain.endswith(suffix):
                            return self.suffix_of[suffix]
            return None
        ip = tok.metadata.received_by_ip
        if ip is None:
            return None
        return self.ip_to_domain.get(ip)


class StageAItem:
    """One message's stage-A output: everything stage B consumes.

    ``processed`` is only pre-filled by the parallel workers (speculative
    scrub of every Layer-1/2 survivor); the serial paths leave it None
    and process after the fold, skipping mail Layer 3 condemns.
    """

    __slots__ = ("tokenized", "summary", "study_domain", "processed")

    def __init__(self, tokenized: TokenizedEmail, summary: MessageSummary,
                 study_domain: Optional[str],
                 processed=None) -> None:
        self.tokenized = tokenized
        self.summary = summary
        self.study_domain = study_domain
        self.processed = processed

    def __getstate__(self):
        return (self.tokenized, self.summary, self.study_domain,
                self.processed)

    def __setstate__(self, state):
        (self.tokenized, self.summary, self.study_domain,
         self.processed) = state


@dataclass
class StageAChunk:
    """One worker's share of the corpus: a contiguous day-ordered slice."""

    messages: List[EmailMessage]
    context: ClassifyContext


@dataclass
class StageAChunkResult:
    """A completed chunk: items in input order plus worker-side timings."""

    items: List[StageAItem]
    tokenize_seconds: float
    score_seconds: float
    process_seconds: float
    #: message-lane feature matrix (rows aligned with ``items``); only
    #: populated when the context asked stage A to featurize
    features: Optional[object] = None
    featurize_seconds: float = 0.0


def run_stage_a_chunk(chunk: StageAChunk) -> StageAChunkResult:
    """Stage A over one chunk (module-level so pools ship it by name).

    Workers speculatively process every Layer-1/2 survivor — Layer-3
    verdicts are not knowable here, and scrubbing in the worker is the
    point of fanning out.  Stage B discards the speculative result for
    mail the collaborative layer later condemns.
    """
    context = chunk.context
    funnel = context.build_funnel()
    attribution = _Attribution(context.our_domains, context.ip_to_domain)
    processor = EmailProcessor() if context.process_non_spam else None
    retain = context.retain_original

    clock = time.perf_counter
    with paused_gc():
        start = clock()
        tokenized = [tokenize(message, retain_original=retain)
                     for message in chunk.messages]
        tokenize_seconds = clock() - start

        start = clock()
        summaries = [funnel.summarize(tok, sequence=message.sequence)
                     for message, tok in zip(chunk.messages, tokenized)]
        score_seconds = clock() - start

        start = clock()
        items: List[StageAItem] = []
        for tok, summary in zip(tokenized, summaries):
            processed = None
            if (processor is not None and summary.layer1 is None
                    and summary.layer2 is None):
                processed = processor.process(tok.original, tokenized=tok)
            items.append(StageAItem(
                tok, summary, attribution.study_domain(tok, summary.kind),
                processed))
        process_seconds = clock() - start

        features = None
        featurize_seconds = 0.0
        if context.featurize:
            from repro.features.messages import message_feature_matrix

            start = clock()
            features = message_feature_matrix(
                [(item.tokenized, item.summary) for item in items])
            featurize_seconds = clock() - start

    return StageAChunkResult(items=items, tokenize_seconds=tokenize_seconds,
                             score_seconds=score_seconds,
                             process_seconds=process_seconds,
                             features=features,
                             featurize_seconds=featurize_seconds)


def partition_messages_by_day(messages: Sequence[EmailMessage],
                              jobs: int) -> List[List[EmailMessage]]:
    """Contiguous day-aligned chunks of the arrival-ordered corpus.

    Chunks never split a simulated day, so each worker sees whole days in
    order; the partition is a pure function of ``(messages, jobs)`` and
    concatenating chunk outputs reproduces the arrival order exactly.
    Aims for ~2 chunks per worker to smooth out uneven day sizes.
    """
    if not messages:
        return []
    target = max(1, (len(messages) + jobs * 2 - 1) // (jobs * 2))
    chunks: List[List[EmailMessage]] = []
    current: List[EmailMessage] = []
    current_day: Optional[int] = None
    for message in messages:
        day = int(message.received_at // SECONDS_PER_DAY)
        if current and day != current_day and len(current) >= target:
            chunks.append(current)
            current = []
        current.append(message)
        current_day = day
    chunks.append(current)
    return chunks


def _emit_records(items: Sequence[StageAItem],
                  results: Sequence[FilterResult],
                  true_kind_by_seq: Dict[int, TypoEmailKind],
                  processor: Optional[EmailProcessor]
                  ) -> List[CollectedRecord]:
    """Stage-B tail: final verdicts → the record stream, in fold order."""
    records: List[CollectedRecord] = []
    append = records.append
    new = CollectedRecord.__new__
    get_kind = true_kind_by_seq.get
    spam = Verdict.SPAM
    for item, result in zip(items, results):
        tok = item.tokenized
        processed = item.processed
        if result.verdict is spam:
            processed = None       # discard any speculative scrub
        elif processed is None and processor is not None:
            processed = processor.process(tok.original, tokenized=tok)
        # one dict assignment instead of the dataclass __init__'s six
        # field stores — this loop runs once per delivered email
        record = new(CollectedRecord)
        record.__dict__ = {
            "tokenized": tok,
            "result": result,
            "study_domain": item.study_domain,
            "timestamp": tok.metadata.received_at,
            "true_kind": get_kind(item.summary.sequence),
            "processed": processed,
        }
        append(record)
    return records


def apply_learned_detector(results: Sequence[FilterResult],
                           learned_spam: Sequence[bool],
                           detector: str) -> List[FilterResult]:
    """Overlay the learned lane's verdicts on the funnel's result stream.

    * ``"learned"`` — the model owns the spam arm: mail it flags becomes
      SPAM regardless of the funnel, and funnel SPAM it disputes is
      released as TRUE_TYPO (a downstream consumer sees exactly what the
      learned detector alone would have delivered);
    * ``"both"`` — union: SPAM iff either detector says so.

    Non-spam funnel verdicts (reflection, frequency) survive untouched
    unless the model flags the mail — those layers answer questions the
    spam arm never asked.
    """
    adjusted: List[FilterResult] = []
    spam = Verdict.SPAM
    for result, flagged in zip(results, learned_spam):
        if flagged and result.verdict is not spam:
            result = FilterResult(verdict=spam, kind=result.kind,
                                  layer=None, reason="learned")
        elif (not flagged and result.verdict is spam
                and detector == "learned"):
            result = FilterResult(verdict=Verdict.TRUE_TYPO,
                                  kind=result.kind, layer=None,
                                  reason="learned-override")
        adjusted.append(result)
    return adjusted


def _score_learned(items: Sequence[StageAItem], model, perf: PerfRegistry,
                   features=None) -> List[bool]:
    """Vectorized message-lane scoring: one matmul + stump pass per batch."""
    from repro.features.messages import message_feature_matrix
    from repro.learned.evaluate import SCORE_THRESHOLD

    if features is None:
        with perf.timer("classify.featurize"):
            features = message_feature_matrix(
                [(item.tokenized, item.summary) for item in items])
    with perf.timer("classify.learned_score"):
        flags = model.message.scores(features) >= SCORE_THRESHOLD
    return [bool(f) for f in flags]


def classify_corpus_records(messages: Sequence[EmailMessage],
                            context: ClassifyContext,
                            true_kind_by_seq: Dict[int, TypoEmailKind],
                            perf: PerfRegistry,
                            jobs: Optional[int] = None,
                            detector: str = "funnel",
                            model=None) -> List[CollectedRecord]:
    """Batch classification of a delivered corpus, serial or fanned out.

    ``jobs<=1`` runs stage A inline (tokenize → summarize → fold →
    emit, each under its own ``classify.*`` timer); ``jobs>1`` fans
    stage A over worker processes in day-ordered chunks and folds the
    returned summaries in arrival order.  Either way the record stream
    is byte-identical.

    ``detector`` selects the spam arm: ``"funnel"`` (rules only, the
    default), ``"learned"`` (the model replaces the funnel's spam
    verdicts), or ``"both"`` (union).  The non-funnel modes need a
    loaded :class:`~repro.learned.model.TypoModel`; featurization rides
    the stage-A chunks (set ``context.featurize``) or runs inline, and
    scoring is one vectorized pass over the whole corpus either way.
    """
    if detector not in ("funnel", "learned", "both"):
        from repro.util.errors import ConfigError
        raise ConfigError(f"unknown detector {detector!r}; expected "
                          "funnel, learned, or both")
    if detector != "funnel" and model is None:
        from repro.util.errors import ConfigError
        raise ConfigError(f"detector {detector!r} requires a trained "
                          "typo model (see `repro train`)")
    funnel = context.build_funnel()
    processor = (EmailProcessor() if context.process_non_spam else None)

    if jobs is not None and jobs > 1 and len(messages) > 1:
        chunks = [StageAChunk(messages=chunk, context=context)
                  for chunk in partition_messages_by_day(messages, jobs)]
        chunk_results = parallel_map(run_stage_a_chunk, chunks, jobs=jobs,
                                     perf=perf)
        items: List[StageAItem] = []
        feature_parts = []
        for result in chunk_results:
            items.extend(result.items)
            if result.features is not None:
                feature_parts.append(result.features)
            perf.add_seconds("classify.tokenize", result.tokenize_seconds)
            perf.add_seconds("classify.score", result.score_seconds)
            perf.add_seconds("classify.process", result.process_seconds)
            perf.add_seconds("classify.featurize", result.featurize_seconds)
        with paused_gc(), perf.timer("classify.fold"):
            fold = SummaryFold(funnel)
            for item in items:
                fold.feed(item.summary)
            results = fold.finalize()
        if detector != "funnel":
            features = None
            if feature_parts and len(feature_parts) == len(chunk_results):
                import numpy as np
                features = np.vstack(feature_parts)
            flags = _score_learned(items, model, perf, features=features)
            results = apply_learned_detector(results, flags, detector)
        with paused_gc(), perf.timer("classify.emit"):
            return _emit_records(items, results, true_kind_by_seq, processor)

    with paused_gc():
        attribution = _Attribution(context.our_domains, context.ip_to_domain)
        retain = context.retain_original
        with perf.timer("classify.tokenize"):
            tokenized = [tokenize(message, retain_original=retain)
                         for message in messages]
        with perf.timer("classify.score"):
            summarize = funnel.summarize
            study_domain = attribution.study_domain
            items = []
            append = items.append
            for message, tok in zip(messages, tokenized):
                summary = summarize(tok, sequence=message.sequence)
                append(StageAItem(tok, summary,
                                  study_domain(tok, summary.kind)))
        with perf.timer("classify.fold"):
            fold = SummaryFold(funnel)
            for item in items:
                fold.feed(item.summary)
            results = fold.finalize()
        if detector != "funnel":
            flags = _score_learned(items, model, perf)
            results = apply_learned_detector(results, flags, detector)
        with perf.timer("classify.emit"):
            return _emit_records(items, results, true_kind_by_seq, processor)


def _encode_pending(entry: Tuple[int, StageAItem]) -> List:
    index, item = entry
    return [index, {"tokenized": item.tokenized.to_canonical_dict(),
                    "study_domain": item.study_domain}]


class StreamingClassifier:
    """Day-by-day classification inside the window loop (bounded memory).

    Feed each day's delivered mail as it arrives; layers 1–4 verdicts are
    final immediately and their records are emitted (and, with a
    ``record_sink``, handed off) on the spot.  Survivors wait as compact
    stage-A items for :meth:`finalize`, which runs the retroactive and
    frequency passes — the resulting record stream is byte-identical to
    the batch classifier's for the same corpus.

    Memory model: with ``retain_messages=True`` the tokenized originals
    ride along and the full record list is returned, so only the work is
    restructured.  With ``retain_messages=False`` each message is
    released once summarised (``tokenize(..., retain_original=False)``)
    and records carry ``tokenized.original=None`` — compare them with the
    content digests in :mod:`repro.experiment.parallel`, which exclude
    the original by construction.  With a ``record_sink`` on top, even
    terminal records are handed off instead of retained; only the
    per-survivor items and the result list remain, which is what the
    scale bench's peak-memory gate measures.
    """

    def __init__(self, context: ClassifyContext,
                 true_kind_by_seq: Dict[int, TypoEmailKind],
                 perf: PerfRegistry,
                 record_sink: Optional[RecordSink] = None) -> None:
        self.context = context
        self.funnel = context.build_funnel()
        self.fold = SummaryFold(self.funnel)
        self.processor = (EmailProcessor() if context.process_non_spam
                          else None)
        self._attribution = _Attribution(context.our_domains,
                                         context.ip_to_domain)
        self._true_kind_by_seq = true_kind_by_seq
        self._perf = perf
        self._sink = record_sink
        #: in-order record slots (None = awaiting finalize); unused in
        #: sink mode, where terminal records are handed off immediately
        self._records: List[Optional[CollectedRecord]] = []
        self._pending: List[Tuple[int, StageAItem]] = []
        self.emitted_count = 0

    def feed(self, messages: Sequence[EmailMessage]) -> None:
        """Classify one day's (or any in-order batch of) deliveries."""
        if not messages:
            return
        perf = self._perf
        context = self.context
        retain = context.retain_original
        with paused_gc():
            with perf.timer("classify.tokenize"):
                tokenized = [tokenize(message, retain_original=retain)
                             for message in messages]
            with perf.timer("classify.score"):
                summarize = self.funnel.summarize
                study_domain = self._attribution.study_domain
                items = []
                append = items.append
                for message, tok in zip(messages, tokenized):
                    summary = summarize(tok, sequence=message.sequence)
                    append(StageAItem(tok, summary,
                                      study_domain(tok, summary.kind)))
            terminal: List[Tuple[int, StageAItem, FilterResult]] = []
            with perf.timer("classify.fold"):
                for item in items:
                    index = len(self.fold.results)
                    result = self.fold.feed(item.summary)
                    if self._sink is None:
                        self._records.append(None)
                    if result is None:
                        self._pending.append((index, item))
                    else:
                        terminal.append((index, item, result))
            with perf.timer("classify.emit"):
                for index, item, result in terminal:
                    self._emit(index, item, result)

    def _emit(self, index: int, item: StageAItem,
              result: FilterResult) -> None:
        tok = item.tokenized
        processed = None
        if result.verdict is not Verdict.SPAM and self.processor is not None:
            processed = self.processor.process(tok.original, tokenized=tok)
        record = CollectedRecord(
            tokenized=tok,
            result=result,
            study_domain=item.study_domain,
            timestamp=tok.metadata.received_at,
            true_kind=self._true_kind_by_seq.get(item.summary.sequence),
            processed=processed,
        )
        self.emitted_count += 1
        if self._sink is not None:
            self._sink(record)
        else:
            self._records[index] = record

    # -- durable state (the study checkpoint's classifier payload) -----------

    def state_dict(self) -> Dict:
        """Compact mid-window classifier state (sink mode only).

        Covers the funnel's learned state, the fold's emitted results,
        the retained provisional stage-A items (whose ``tokenized`` has
        already dropped the raw original in bounded-memory mode), and the
        emitted-record count.  The growing parts are handed over live as
        :mod:`repro.util.journal` fields, so a checkpoint save encodes
        only the items added since the last one
        (:func:`~repro.util.journal.materialize` gives the JSON).  A
        pending item's summary is the very object the fold holds at the
        same index, so it is persisted once, on the fold side.
        Retaining modes never call this — a resumed run re-feeds the
        serialized corpus in ingest order instead, which reproduces the
        same state for far fewer bytes.
        """
        if self._sink is None:
            raise RuntimeError(
                "classifier state capture requires a record sink; "
                "retaining modes re-feed the corpus on resume")
        return {
            "funnel": self.funnel.state_dict(),
            "fold": self.fold.state_dict(),
            "pending": Appended(self._pending, _encode_pending),
            "emitted_count": self.emitted_count,
        }

    def restore_state(self, data: Dict) -> None:
        """Restore a materialized :meth:`state_dict` onto a fresh classifier.

        Each pending item is re-linked to the fold's summary at the same
        index, so the two share one object again, as in the live run.
        """
        self.funnel.restore_state(data["funnel"])
        self.fold.restore_state(data["fold"])
        provisional = self.fold.provisional
        if len(provisional) != len(data["pending"]):
            raise ValueError(
                f"{len(data['pending'])} pending classifier items but "
                f"{len(provisional)} provisional fold summaries")
        self._pending = []
        for (index, entry), (fold_index, summary) in zip(data["pending"],
                                                         provisional):
            if index != fold_index:
                raise ValueError(
                    f"pending item {index} does not match provisional "
                    f"summary {fold_index}")
            self._pending.append((index, StageAItem(
                TokenizedEmail.from_canonical_dict(entry["tokenized"]),
                summary, entry["study_domain"])))
        self.emitted_count = data["emitted_count"]

    def finalize(self) -> List[CollectedRecord]:
        """Retroactive + frequency passes; emit the waiting records.

        Returns the full in-order record list, or ``[]`` in sink mode
        (terminal records were already handed off in decision order, and
        the previously-provisional ones follow in arrival order).
        """
        with paused_gc():
            with self._perf.timer("classify.fold"):
                results = self.fold.finalize()
            with self._perf.timer("classify.emit"):
                for index, item in self._pending:
                    self._emit(index, item, results[index])
                self._pending.clear()
        if self._sink is not None:
            return []
        records = self._records
        self._records = []
        return records  # type: ignore[return-value]
