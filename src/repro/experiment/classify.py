"""The study's classification loop: stage A, then the fold, then emit.

The paper's funnel (§4.3) is one pass over the collected corpus, part
of which runs afterwards: Layer 3 goes back and condemns a spammer's
earlier mail, and Layer 5 counts over the whole corpus.
:class:`StreamingClassifier` is the one loop that makes that pass,
split along the funnel's stage boundary (see :mod:`repro.spamfilter.funnel`):

* **Stage A** (:func:`_stage_a`) — pure per-message work: tokenize,
  Layer-1/2/4 evaluation via :meth:`FilterFunnel.summarize`, study-domain
  attribution and, for the learned detector, the feature matrix.  Pure,
  so it runs inline or on worker processes in day-ordered chunks
  (:func:`run_stage_a_chunk`).
* **Stage B** — the serial stateful fold (:class:`SummaryFold`): the
  collaborative database, corpus-wide frequencies, and the retroactive
  pass, consuming stage-A summaries in arrival order.

Batch classification (:func:`classify_corpus_records`) feeds the whole
corpus once; the study's streaming mode feeds one day at a time.  Stage
B sees the same summaries in the same order either way, so the
:class:`CollectedRecord` stream is byte-identical across batch, parallel
(any ``jobs``) and day-streamed feeding — pinned by
``record_stream_digest`` in the classify-pipeline tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from repro.util.errors import ConfigError
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
    #: build the message-lane feature matrix in stage A (on the pool
    #: workers too); :class:`StreamingClassifier` sets it from its detector
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

    ``processed`` is only pre-filled by the pool workers (speculative
    scrub of every Layer-1/2 survivor); inline stage A leaves it None
    and processes at emit time, skipping mail the funnel condemns.
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
    """A completed chunk: items in input order plus the worker's timers."""

    items: List[StageAItem]
    #: the worker's ``classify.*`` timers, merged into the parent's
    perf: PerfRegistry
    #: message-lane feature matrix (rows aligned with ``items``); only
    #: populated when the context asked stage A to featurize
    features: Optional[object] = None


def _stage_a(messages: Sequence[EmailMessage], context: ClassifyContext,
             funnel: FilterFunnel, attribution: _Attribution,
             perf: PerfRegistry,
             processor: Optional[EmailProcessor] = None
             ) -> Tuple[List[StageAItem], Optional[object]]:
    """Stage A over an in-order batch: ``(items, feature matrix)``.

    With a ``processor`` every Layer-1/2 survivor is scrubbed
    speculatively; stage B discards the result for mail it condemns.
    """
    retain = context.retain_original
    with paused_gc():
        with perf.timer("classify.tokenize"):
            tokenized = [tokenize(message, retain_original=retain)
                         for message in messages]
        with perf.timer("classify.score"):
            study_domain = attribution.study_domain
            items: List[StageAItem] = []
            append = items.append
            for message, tok in zip(messages, tokenized):
                summary = funnel.summarize(tok, sequence=message.sequence)
                append(StageAItem(tok, summary,
                                  study_domain(tok, summary.kind)))
        if processor is not None:
            with perf.timer("classify.process"):
                for item in items:
                    summary = item.summary
                    if summary.layer1 is None and summary.layer2 is None:
                        item.processed = processor.process(
                            item.tokenized.original,
                            tokenized=item.tokenized)
        features = None
        if context.featurize:
            from repro.features.messages import message_feature_matrix

            with perf.timer("classify.featurize"):
                features = message_feature_matrix(
                    [(item.tokenized, item.summary) for item in items])
    return items, features


def run_stage_a_chunk(chunk: StageAChunk) -> StageAChunkResult:
    """Stage A over one chunk (module-level so pools ship it by name).

    Workers speculatively process every Layer-1/2 survivor — Layer-3
    verdicts are not knowable here, and scrubbing in the worker is the
    point of fanning out.
    """
    context = chunk.context
    perf = PerfRegistry()
    items, features = _stage_a(
        chunk.messages, context, context.build_funnel(),
        _Attribution(context.our_domains, context.ip_to_domain), perf,
        EmailProcessor() if context.process_non_spam else None)
    return StageAChunkResult(items=items, perf=perf, features=features)


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
    """Stage-B tail: decided verdicts → their records, in input order."""
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


def classify_corpus_records(messages: Sequence[EmailMessage],
                            context: ClassifyContext,
                            true_kind_by_seq: Dict[int, TypoEmailKind],
                            perf: PerfRegistry,
                            jobs: Optional[int] = None,
                            detector: str = "funnel",
                            model=None) -> List[CollectedRecord]:
    """Batch classification: the classifier fed the whole corpus once.

    See :class:`StreamingClassifier` for ``jobs``, ``detector`` and
    ``model``; the record stream is byte-identical to feeding the same
    corpus day by day.
    """
    classifier = StreamingClassifier(context, true_kind_by_seq, perf,
                                     jobs=jobs, detector=detector,
                                     model=model)
    classifier.feed(messages)
    return classifier.finalize()


def _encode_pending(entry: Tuple[int, StageAItem]) -> List:
    index, item = entry
    return [index, {"tokenized": item.tokenized.to_canonical_dict(),
                    "study_domain": item.study_domain}]


class StreamingClassifier:
    """The classify loop: :meth:`feed` in-order batches, then :meth:`finalize`.

    Each feed runs stage A over the batch (fanned over ``jobs`` worker
    processes when ``jobs > 1``) and folds it in arrival order; layers
    1–4 verdicts are final at once and their records are emitted (to
    the ``record_sink`` if there is one) on the spot.  Survivors wait as
    compact stage-A items for :meth:`finalize`, which runs the
    retroactive and frequency passes.

    ``detector`` selects the spam arm: ``"funnel"`` (rules only),
    ``"learned"`` (a loaded :class:`~repro.learned.model.TypoModel`
    replaces the funnel's spam verdicts) or ``"both"`` (union).  The
    model scores each fed batch's feature matrix in one vectorized pass,
    and :func:`apply_learned_detector` overlays each result once it is
    decided.

    Memory model: with ``retain_messages=False`` each raw message is
    released once summarised and records carry
    ``tokenized.original=None`` (compare them with the content digests
    in :mod:`repro.experiment.parallel`).  With a ``record_sink`` even
    terminal records are handed off instead of retained; only the
    per-survivor items and the result list remain, which is what the
    scale bench's peak-memory gate measures.
    """

    def __init__(self, context: ClassifyContext,
                 true_kind_by_seq: Dict[int, TypoEmailKind],
                 perf: PerfRegistry,
                 record_sink: Optional[RecordSink] = None, *,
                 jobs: Optional[int] = None,
                 detector: str = "funnel",
                 model=None) -> None:
        if detector not in ("funnel", "learned", "both"):
            raise ConfigError(f"unknown detector {detector!r}; expected "
                              "funnel, learned, or both")
        if detector != "funnel" and model is None:
            raise ConfigError(f"detector {detector!r} requires a trained "
                              "typo model (see `repro train`)")
        self.context = replace(context, featurize=detector != "funnel")
        self.funnel = context.build_funnel()
        self.fold = SummaryFold(self.funnel)
        self.processor = (EmailProcessor() if context.process_non_spam
                          else None)
        self.jobs = jobs or 1
        self.detector = detector
        self.model = model
        self._attribution = _Attribution(context.our_domains,
                                         context.ip_to_domain)
        self._true_kind_by_seq = true_kind_by_seq
        self._perf = perf
        self._sink = record_sink
        #: in-order record slots (None = awaiting finalize); unused in
        #: sink mode, where records are handed off as they are decided
        self._records: List[Optional[CollectedRecord]] = []
        self._pending: List[Tuple[int, StageAItem]] = []
        #: the learned lane's spam flag per fed message, by fold index
        self._flags: List[bool] = []
        self.emitted_count = 0

    def feed(self, messages: Sequence[EmailMessage]) -> None:
        """Classify one day's (or any in-order batch of) deliveries."""
        if not messages:
            return
        perf = self._perf
        context = self.context
        if self.jobs > 1 and len(messages) > 1:
            chunks = [StageAChunk(messages=chunk, context=context)
                      for chunk in partition_messages_by_day(messages,
                                                             self.jobs)]
            items: List[StageAItem] = []
            parts = []
            for result in parallel_map(run_stage_a_chunk, chunks,
                                       jobs=self.jobs, perf=perf):
                items.extend(result.items)
                parts.append(result.features)
                perf.merge(result.perf)
            features = None
            if context.featurize:
                import numpy as np
                features = np.vstack(parts)
        else:
            items, features = _stage_a(messages, context, self.funnel,
                                       self._attribution, perf)
        if self.model is not None:
            from repro.learned.evaluate import SCORE_THRESHOLD

            with perf.timer("classify.learned_score"):
                self._flags.extend(
                    (self.model.message.scores(features)
                     >= SCORE_THRESHOLD).tolist())
        base = len(self.fold)
        indices: List[int] = []
        decided: List[StageAItem] = []
        results: List[FilterResult] = []
        with paused_gc():
            with perf.timer("classify.fold"):
                feed = self.fold.feed
                pending = self._pending
                for position, item in enumerate(items, base):
                    result = feed(item.summary)
                    if result is None:
                        pending.append((position, item))
                    else:
                        indices.append(position)
                        decided.append(item)
                        results.append(result)
            if self._sink is None:
                self._records.extend([None] * len(items))
            self._emit(indices, decided, results)

    def _emit(self, indices: Sequence[int], items: Sequence[StageAItem],
              results: Sequence[FilterResult]) -> None:
        """Emit decided results: to the sink, or into their record slots."""
        if self.model is not None:
            flags = self._flags
            results = apply_learned_detector(
                results, [flags[index] for index in indices], self.detector)
        with self._perf.timer("classify.emit"):
            records = _emit_records(items, results, self._true_kind_by_seq,
                                    self.processor)
            self.emitted_count += len(records)
            if self._sink is not None:
                for record in records:
                    self._sink(record)
            else:
                slots = self._records
                for index, record in zip(indices, records):
                    slots[index] = record

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
        if self._sink is None or self.model is not None:
            raise RuntimeError(
                "classifier state capture requires a record sink and the "
                "funnel detector; retaining modes re-feed the corpus on "
                "resume")
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
            pending = self._pending
            self._emit([index for index, _ in pending],
                       [item for _, item in pending],
                       [results[index] for index, _ in pending])
            pending.clear()
        if self._sink is not None:
            return []
        records = self._records
        self._records = []
        return records  # type: ignore[return-value]
