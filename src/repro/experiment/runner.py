"""The end-to-end seven-month study simulation (paper Section 4).

Wires everything together the way Figure 1 does: the 76-domain corpus is
registered with catch-all zones, each domain gets a dedicated VPS
forwarding into the main collection server, and four traffic generators
(receiver typos, reflection typos, SMTP typos, spam) drive day-by-day
SMTP deliveries across the collection window — including the outage days
on which the overwhelmed infrastructure recorded nothing.  Afterwards the
corpus flows through the processing pipeline and the five-layer funnel,
yielding the :class:`CollectedRecord` stream every §4.4 analysis and
figure consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from pathlib import Path
from typing import Union

from repro.analysis.records import CollectedRecord
from repro.core.targets import StudyCorpus, build_study_corpus
from repro.core.taxonomy import TypoEmailKind
from repro.dnssim import DomainRegistry, Resolver
from repro.experiment.checkpoint import StudyCheckpoint, config_identity
from repro.experiment.classify import (
    ClassifyContext,
    RecordSink,
    StreamingClassifier,
    classify_corpus_records,
)
from repro.experiment.config import ExperimentConfig
from repro.faultsim.inject import FaultyResolver, StudyFaultInjector
from repro.faultsim.plan import InjectedStudyCrash
from repro.infra import (CollectionInfrastructure, attach_forwarding,
                         provision_study)
from repro.smtpsim import Network, SmtpClient
from repro.smtpsim.message import EmailMessage
from repro.smtpsim.retryqueue import RetryQueue
from repro.spamfilter.funnel import Verdict
from repro.util.errors import CheckpointMismatchError, ConfigError
from repro.util.journal import Appended
from repro.util.perf import PerfRegistry, paused_gc, throughput
from repro.util.rand import SeededRng
from repro.util.simtime import SECONDS_PER_DAY, CollectionWindow, paper_window
from repro.util.textcache import memo_totals
from repro.workloads.events import SendRequest
from repro.workloads.hamgen import ReceiverTypoGenerator
from repro.workloads.reflection import ReflectionTypoGenerator
from repro.workloads.smtp_typo import SmtpTypoGenerator
from repro.workloads.spamgen import SpamGenerator

__all__ = ["StudyResults", "StudyRunner", "DurableStudyOutcome",
           "run_durable_study"]


@dataclass
class StudyResults:
    """Everything a completed run exposes to the analyses."""

    config: ExperimentConfig
    corpus: StudyCorpus
    window: CollectionWindow
    infra: CollectionInfrastructure
    records: List[CollectedRecord]
    malicious_hashes: Set[str]
    sent_count: int = 0
    delivered_count: int = 0
    #: per-phase timers and call/byte counters (see :mod:`repro.util.perf`)
    perf: Optional[Dict] = None
    #: fault-injection accounting (plan digest, injected faults, retry
    #: queue stats, collector gap/coverage report) — None without a plan
    robustness: Optional[Dict] = None

    # -- convenience views ---------------------------------------------------

    def true_typo_records(self) -> List[CollectedRecord]:
        """The records that survived every filter layer."""
        return [r for r in self.records if r.is_true_typo]

    def per_domain_yearly_true_typos(self) -> Dict[str, float]:
        """Measured yearly receiver-typo volume per study domain.

        This is the dependent variable of the Section 6 regression —
        exactly what the paper measured on its own registrations.
        """
        counts: Dict[str, int] = {}
        for record in self.records:
            if not record.is_true_typo or record.result.kind != "receiver":
                continue
            if record.study_domain:
                counts[record.study_domain] = counts.get(
                    record.study_domain, 0) + 1
        project = self.window.yearly_projection
        scale = self.config.ham_scale
        return {domain: project(count) / scale
                for domain, count in counts.items()}

    def funnel_accuracy(self) -> Tuple[int, int]:
        """(correct, total) of verdicts vs. ground truth.

        Correctness follows the study's purpose: ground-truth spam must
        *not* end up in the true-typo bin (whether Layer 1–3 or the
        frequency layer removed it is immaterial); reflection mail should
        be flagged as automated (or frequency-filtered — recurring
        automated streams are); receiver typos must survive; SMTP typos
        may survive or land in the frequency band the paper itself treats
        as ambiguous (its 415–5,970/yr range).
        """
        correct = total = 0
        for record in self.records:
            if record.true_kind is None:
                continue
            total += 1
            verdict = record.verdict
            if record.true_kind is TypoEmailKind.SPAM:
                correct += verdict is not Verdict.TRUE_TYPO
            elif record.true_kind is TypoEmailKind.REFLECTION:
                correct += verdict in (Verdict.REFLECTION,
                                       Verdict.FREQUENCY_FILTERED)
            elif record.true_kind is TypoEmailKind.SMTP:
                correct += verdict in (Verdict.TRUE_TYPO,
                                       Verdict.FREQUENCY_FILTERED)
            else:
                correct += verdict is Verdict.TRUE_TYPO
        return correct, total


def _encode_kind(entry: Tuple[int, TypoEmailKind]) -> List:
    seq, kind = entry
    return [seq, kind.value]


class StudyRunner:
    """Builds the world and runs the collection experiment."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        self._rng = SeededRng(self.config.seed, name="study")

    def run(self, record_sink: Optional[RecordSink] = None,
            checkpoint_path: Optional[Union[str, Path]] = None,
            resume: bool = False,
            checkpoint_interval: int = 1) -> StudyResults:
        """Provision the world, simulate the window, classify everything.

        ``record_sink`` (streaming mode only) receives each
        :class:`CollectedRecord` as its verdict becomes final instead of
        accumulating them; the returned results then carry an empty
        record list.

        ``checkpoint_path`` turns on the durable engine: the full
        simulation state is snapshotted at day boundaries (every
        ``checkpoint_interval`` days, atomically) so a killed run can be
        restarted with the same path and continue from the last completed
        day — producing the byte-identical record stream an
        uninterrupted run would have.  If the file already exists the
        run resumes from it; ``resume=True`` additionally *requires* it
        to exist.
        """
        config = self.config
        if record_sink is not None and not config.streaming_classify:
            raise ValueError("record_sink requires streaming_classify=True")
        perf = PerfRegistry()
        cache_hits0, cache_misses0 = memo_totals()
        # the run's objects are acyclic (refcounting frees every dead
        # one), so collections would only rescan its growing live set
        with paused_gc(), perf.timer("run"):
            with perf.timer("provision"):
                corpus = build_study_corpus()
                registry = DomainRegistry()
                network = Network(self._rng.child("network"))
                infra = provision_study(corpus, registry, network)
                collector = infra.collector
                attach_forwarding(infra, network)
                window = paper_window(outage_spans=config.outage_spans)

            # -- fault injection (only when a non-trivial plan is given:
            # the fault-free paths below must stay byte-identical)
            plan = config.fault_plan
            injector: Optional[StudyFaultInjector] = None
            retry_queue: Optional[RetryQueue] = None
            if plan is not None and not plan.is_empty:
                injector = StudyFaultInjector(plan, window.total_days)
                retry_queue = RetryQueue(plan.retry)
                collector.schedule_outage_days(injector.drop_days())
                for server in infra.servers.values():
                    server.fault_gate = injector.make_gate(server.hostname)

            # classification pipeline shared by batch and streaming modes
            typo_model = None
            if config.detector != "funnel":
                if config.model_path is None:
                    raise ConfigError(
                        f"detector {config.detector!r} needs a trained "
                        "model artifact; pass a model path "
                        "(see `repro train`)")
                from repro.learned.model import load_model

                typo_model = load_model(config.model_path)

            # -- living-internet scenario + drift-resilient lifecycle --------
            scenario = config.scenario
            scenario_driver = None
            lifecycle = None
            lifecycle_events: List[Dict] = []
            if scenario is not None:
                from repro.scenario.driver import ScenarioDriver

                scenario_driver = ScenarioDriver(scenario)
                if any(event.retrain for event in scenario.events):
                    if typo_model is None:
                        raise ConfigError(
                            "the scenario schedules retrain=True campaign "
                            "events, which drive the learned-model "
                            "lifecycle; run with detector='learned' (or "
                            "'both') and a trained model artifact")
                    lifecycle_dir = config.model_dir
                    if lifecycle_dir is None and checkpoint_path is not None:
                        lifecycle_dir = str(checkpoint_path) + ".models"
                    if lifecycle_dir is None:
                        raise ConfigError(
                            "retrain events need a directory for the "
                            "active/candidate/previous model artifacts; "
                            "set model_dir or run with a checkpoint path")
                    from repro.learned.lifecycle import ModelLifecycle

                    lifecycle = ModelLifecycle(lifecycle_dir,
                                               seed=scenario.seed)
                    # every (re)start replays the lifecycle fold from the
                    # same initial model: promoted artifacts are pure
                    # functions of (scenario, model), so crashed and
                    # crash-free runs converge on identical bytes
                    lifecycle.initialize(typo_model, overwrite=True)
            classify_context = ClassifyContext(
                our_domains=tuple(corpus.domain_names()),
                ip_to_domain=ClassifyContext.ip_map(infra),
                process_non_spam=config.process_non_spam,
                retain_original=config.retain_messages,
            )
            true_kind_by_seq: Dict[int, TypoEmailKind] = {}
            classifier: Optional[StreamingClassifier] = None
            if config.streaming_classify:
                collector.enable_streaming(
                    retain_corpus=config.retain_messages)
                classifier = StreamingClassifier(
                    classify_context, true_kind_by_seq, perf,
                    record_sink=record_sink)

            with perf.timer("build_generators"):
                generators = self._build_generators(corpus)
            resolver = Resolver(registry)
            if injector is not None:
                resolver = FaultyResolver(resolver, injector)
            client = SmtpClient(resolver, network)
            our_domains = frozenset(corpus.domain_names())
            # suffix tuple for C-speed subdomain checks (str.endswith
            # accepts a tuple); rebuilt once per run, not per email
            our_suffixes = tuple("." + d for d in our_domains)

            # -- durability: day-granular checkpoint/resume ------------------
            mode = ("sink" if classifier is not None
                    and record_sink is not None
                    else "refeed" if classifier is not None else "batch")
            checkpoint: Optional[StudyCheckpoint] = None
            identity: Optional[Dict] = None
            # keyed "12" (day boundary) / "12:retrain" (mid-retrain phase)
            crash_attempts: Dict[str, int] = {}
            checkpoints_written = 0
            start_day = 0
            resumed_from: Optional[int] = None
            sent = 0
            if plan is not None and plan.study_crashes \
                    and checkpoint_path is None:
                raise ConfigError(
                    "the fault plan schedules study-day crashes, which "
                    "only make sense with a checkpoint to resume from; "
                    "run the study with a checkpoint path")
            if checkpoint_path is not None:
                if (classifier is not None and record_sink is None
                        and not config.retain_messages):
                    raise ConfigError(
                        "bounded-memory checkpointing without a record "
                        "sink would lose already-classified records on "
                        "resume; retain messages or attach a restorable "
                        "record sink")
                if mode == "sink" and not (
                        callable(getattr(record_sink, "state_dict", None))
                        and callable(getattr(record_sink,
                                             "restore_state", None))):
                    raise ConfigError(
                        "checkpointing in sink mode needs a sink with "
                        "state_dict()/restore_state() "
                        "(e.g. RecordDigestSink)")
                checkpoint = StudyCheckpoint(checkpoint_path)
                identity = config_identity(config)
                if resume or checkpoint.exists():
                    payload = checkpoint.load(identity)
                    state = payload["state"]
                    if state.get("mode") != mode:
                        raise CheckpointMismatchError(
                            f"checkpoint {checkpoint.path} was written "
                            f"in {state.get('mode')!r} mode but this run "
                            f"is {mode!r} (record sink or retention "
                            f"changed); refusing to resume")
                    start_day = payload["next_day"]
                    resumed_from = start_day
                    crash_attempts = StudyCheckpoint.crash_attempts_from(
                        payload)
                    with perf.timer("checkpoint"):
                        sent, retry_queue = self._restore_state(
                            state, mode, collector, retry_queue, injector,
                            generators, classifier, record_sink,
                            true_kind_by_seq)
                    if scenario_driver is not None:
                        saved_driver = state.get("scenario_driver")
                        if saved_driver is not None:
                            scenario_driver.restore_state(saved_driver)
                        else:
                            scenario_driver.run(start_day)
                    if lifecycle is not None and start_day > 0:
                        # replay completed days' lifecycle cycles (their
                        # crash budgets are exhausted, so no hooks): the
                        # same initial model + the same campaign windows
                        # reproduce byte-identical promoted artifacts
                        with perf.timer("lifecycle"):
                            for scenario_day in range(1, start_day + 1):
                                for event in scenario.events_on(
                                        scenario_day):
                                    if event.retrain:
                                        lifecycle_events.append(
                                            self._run_lifecycle_cycle(
                                                lifecycle, scenario.seed,
                                                event))

            for day in range(start_day, window.total_days):
                retrain_crash = None
                retrain_attempt = 0
                if checkpoint is not None:
                    crash_spec = None
                    if plan is not None and any(
                            spec.day == day and spec.phase == "day"
                            for spec in plan.study_crashes):
                        attempt = crash_attempts.get(str(day), 0) + 1
                        crash_attempts[str(day)] = attempt
                        crash_spec = plan.crash_spec_for_study_day(
                            day, attempt)
                    if plan is not None and any(
                            spec.day == day and spec.phase == "retrain"
                            for spec in plan.study_crashes):
                        key = f"{day}:retrain"
                        retrain_attempt = crash_attempts.get(key, 0) + 1
                        crash_attempts[key] = retrain_attempt
                        retrain_crash = plan.crash_spec_for_study_day(
                            day, retrain_attempt, phase="retrain")
                    interval_due = (day > start_day and day
                                    % max(1, checkpoint_interval) == 0)
                    if (interval_due or crash_spec is not None
                            or retrain_crash is not None):
                        # a firing crash spec always forces a save (even
                        # off-interval): the persisted attempt counter is
                        # what guarantees the resumed run makes progress
                        with perf.timer("checkpoint"):
                            checkpoint.save(
                                identity, day, crash_attempts,
                                self._capture_state(
                                    mode, sent, true_kind_by_seq,
                                    collector, retry_queue, injector,
                                    generators, classifier, record_sink,
                                    scenario_driver))
                        checkpoints_written += 1
                    if crash_spec is not None:
                        raise InjectedStudyCrash(
                            f"injected study crash at day {day} (attempt "
                            f"{crash_attempts[str(day)]} of "
                            f"{crash_spec.failures} scheduled failures)")
                if injector is not None:
                    injector.begin_day(day)
                collector.begin_day(day,
                                    collecting=window.is_collecting(day))
                if scenario_driver is not None:
                    # scenario day N fires during study day N-1, so the
                    # pre-day checkpoint above brackets the event boundary
                    scenario_driver.step()
                    if lifecycle is not None:
                        for event in scenario.events_on(
                                scenario_driver.day):
                            if not event.retrain:
                                continue
                            with perf.timer("lifecycle"):
                                lifecycle_events.append(
                                    self._run_lifecycle_cycle(
                                        lifecycle, scenario.seed, event,
                                        crash_spec=retrain_crash,
                                        day=day,
                                        attempt=retrain_attempt))
                if retry_queue is not None and len(retry_queue):
                    with perf.timer("retry"):
                        self._drain_retries(client, retry_queue,
                                            (day + 1) * SECONDS_PER_DAY)
                with perf.timer("generate"):
                    requests: List[SendRequest] = []
                    for generator in generators:
                        requests.extend(generator.emails_for_day(day))
                    requests.sort(key=lambda r: r.timestamp)
                with perf.timer("deliver"):
                    for request in requests:
                        sent += 1
                        # monotone send sequence: the attribution key
                        # (object ids are reused once streaming mode
                        # releases delivered messages)
                        request.sequence = sent
                        request.message.sequence = sent
                        true_kind_by_seq[sent] = request.true_kind
                        perf.count("deliver.body_bytes",
                                   len(request.message.body))
                        attempt = self._deliver(client, infra, our_domains,
                                                our_suffixes, request)
                        if retry_queue is not None and attempt is not None:
                            result, route, ip = attempt
                            retry_queue.offer(
                                request.message, result.recipient, result,
                                request.timestamp, mode=route,
                                port=request.smtp_port, ip=ip,
                                context=request)
                if classifier is not None:
                    with perf.timer("classify"):
                        classifier.feed(collector.drain_pending())
            if checkpoint is not None:
                # terminal snapshot: next_day == total_days documents a
                # completed window; a resume from it skips straight to
                # the final retry drain + classification
                with perf.timer("checkpoint"):
                    checkpoint.save(
                        identity, window.total_days, crash_attempts,
                        self._capture_state(
                            mode, sent, true_kind_by_seq, collector,
                            retry_queue, injector, generators,
                            classifier, record_sink, scenario_driver))
                checkpoints_written += 1
            collector.set_outage(False)
            if retry_queue is not None:
                # the queue survives the window's last day: one final
                # drain, then everything left gives up with a DSN
                end_of_window = window.total_days * SECONDS_PER_DAY
                with perf.timer("retry"):
                    self._drain_retries(client, retry_queue, end_of_window)
                    retry_queue.expire_remaining(end_of_window)

            # the lifecycle's final active model (a promoted candidate,
            # or the initial artifact if every gate held/rejected) is
            # what classifies the corpus — the whole point of healing
            # drift before the batch detector runs
            active_model = typo_model
            if lifecycle is not None:
                active_model = lifecycle.active()
            with perf.timer("classify"):
                if classifier is not None:
                    classifier.feed(collector.drain_pending())
                    records = classifier.finalize()
                else:
                    records = classify_corpus_records(
                        collector.corpus, classify_context,
                        true_kind_by_seq, perf,
                        jobs=config.classify_jobs,
                        detector=config.detector,
                        model=active_model)
        delivered = collector.stats.ingested
        cache_hits, cache_misses = memo_totals()
        perf.count("emails.sent", sent)
        perf.count("emails.delivered", delivered)
        perf.count("records", classifier.emitted_count
                   if classifier is not None else len(records))
        perf.count("classify.text_cache_hits", cache_hits - cache_hits0)
        perf.count("classify.text_cache_misses",
                   cache_misses - cache_misses0)
        robustness: Optional[Dict] = None
        if injector is not None:
            perf.count("faults.injected", injector.stats.total_injected)
            perf.count("retry.recovered", retry_queue.stats.recovered)
            robustness = {
                "plan_digest": plan.digest(),
                "plan_seed": plan.seed,
                "faults": injector.stats.as_dict(),
                "retry": retry_queue.stats.as_dict(),
                "collector": collector.coverage_report(window.total_days),
            }
        if checkpoint is not None:
            if robustness is None:
                robustness = {}
            robustness["durability"] = {
                "checkpoint_path": str(checkpoint.path),
                "resumed_from_day": resumed_from,
                "checkpoints_written": checkpoints_written,
                "crash_attempts": {str(key): count for key, count
                                   in sorted(crash_attempts.items())},
            }
        if scenario_driver is not None:
            if robustness is None:
                robustness = {}
            robustness["scenario"] = {
                "name": scenario.name,
                "digest": scenario.digest(),
                "days": scenario_driver.day,
                "samples": [dict(sample)
                            for sample in scenario_driver.samples],
                "timeline_digest": scenario_driver.timeline_digest(),
                "lifecycle": ({
                    "events": lifecycle_events,
                    "decisions_digest": lifecycle.decisions_digest(),
                    "drift_digest": lifecycle.monitor().digest(),
                    "active_digest": lifecycle.active().digest(),
                } if lifecycle is not None else None),
            }
        snapshot = perf.snapshot(extra={
            "throughput": {
                "emails_sent_per_sec": throughput(sent, perf.seconds("run")),
                "emails_delivered_per_sec": throughput(
                    delivered, perf.seconds("run")),
            },
        })
        spam_generator = generators[-1]
        return StudyResults(
            config=config,
            corpus=corpus,
            window=window,
            infra=infra,
            records=records,
            malicious_hashes=set(spam_generator.malicious_hashes),
            sent_count=sent,
            delivered_count=delivered,
            perf=snapshot,
            robustness=robustness,
        )

    # -- durable state (what the study checkpoint persists) ------------------

    def _capture_state(self, mode: str, sent: int,
                       true_kind_by_seq: Dict[int, TypoEmailKind],
                       collector, retry_queue: Optional[RetryQueue],
                       injector: Optional[StudyFaultInjector],
                       generators: List,
                       classifier: Optional[StreamingClassifier],
                       record_sink: Optional[RecordSink],
                       scenario_driver=None) -> Dict:
        """The full day-boundary state block, as journal fields.

        Everything that can diverge between a resumed and an
        uninterrupted run is here: RNG stream positions (the whole child
        tree), the send-sequence counter and kind attribution, collector
        accounting, the retained corpus (batch/refeed modes), pending
        retry jobs with their backoff positions, injector greylist,
        generator episode/campaign state, and — in sink mode — the
        classifier fold plus the sink accumulator.  Stateless pieces
        (resolver, SMTP client, infra wiring) are rebuilt from the
        config on resume.

        Parts that only grow (kind attribution, the retained corpus, the
        classifier's items and counters) are live
        :mod:`repro.util.journal` fields, so a checkpoint save encodes
        just what was added since the previous save;
        :func:`~repro.util.journal.materialize` turns the tree into the
        full JSON state a journal replay gives back to
        :meth:`_restore_state`.
        """
        state = {
            "mode": mode,
            "sent": sent,
            "rng": self._rng.capture_state_tree(),
            "true_kind_by_seq": Appended(true_kind_by_seq.items(),
                                         _encode_kind),
            "collector": collector.state_dict(),
            "corpus": (Appended(collector.corpus,
                                EmailMessage.to_canonical_dict)
                       if self.config.retain_messages else None),
            "retry_queue": (retry_queue.to_canonical_dict()
                            if retry_queue is not None else None),
            "injector": (injector.state_dict()
                         if injector is not None else None),
            "smtp_typo_generator": generators[2].state_dict(),
            "spam_generator": generators[3].state_dict(),
            "classifier": (classifier.state_dict()
                           if mode == "sink" else None),
            "sink": (record_sink.state_dict()
                     if mode == "sink" else None),
        }
        # key present only for scenario runs: checkpoint bytes for every
        # pre-scenario configuration stay exactly what they were
        if scenario_driver is not None:
            state["scenario_driver"] = scenario_driver.state_dict()
        return state

    def _restore_state(self, state: Dict, mode: str, collector,
                       retry_queue: Optional[RetryQueue],
                       injector: Optional[StudyFaultInjector],
                       generators: List,
                       classifier: Optional[StreamingClassifier],
                       record_sink: Optional[RecordSink],
                       true_kind_by_seq: Dict[int, TypoEmailKind],
                       ) -> Tuple[int, Optional[RetryQueue]]:
        """Rewind a freshly built world to the checkpointed day boundary.

        The world was just constructed through the normal code path (so
        every init-time RNG draw already happened in the original
        order); this only restores the *positions* each stream had
        reached, plus all accumulated mutable state.  Returns the
        restored send counter and the (re-built) retry queue.
        """
        self._rng.restore_state_tree(state["rng"])
        for seq, value in state["true_kind_by_seq"]:
            true_kind_by_seq[seq] = TypoEmailKind(value)
        collector.restore_state(state["collector"])
        if state["corpus"] is not None:
            collector.corpus[:] = [
                EmailMessage.from_canonical_dict(entry)
                for entry in state["corpus"]]
        if retry_queue is not None:
            retry_queue = RetryQueue.from_canonical_dict(
                state["retry_queue"])
        if injector is not None:
            injector.restore_state(state["injector"])
        generators[2].restore_state(state["smtp_typo_generator"])
        generators[3].restore_state(state["spam_generator"])
        if classifier is not None:
            if mode == "sink":
                classifier.restore_state(state["classifier"])
                record_sink.restore_state(state["sink"])
            else:
                # refeed mode: replay the retained corpus through the
                # fresh funnel in its original ingest order — the fold
                # is batch-boundary independent, so this reproduces the
                # classifier state exactly without persisting it
                classifier.feed(list(collector.corpus))
        return state["sent"], retry_queue

    def _run_lifecycle_cycle(self, lifecycle, seed: int, event, *,
                             crash_spec=None, day: Optional[int] = None,
                             attempt: int = 0) -> Dict:
        """One retrain event's detect → retrain → gate → promote cycle.

        ``crash_spec`` (a retrain-phase :class:`StudyCrashSpec`) injects
        the in-process SIGKILL stand-in at the candidate-saved boundary
        — after the shadow retrain persisted its candidate, before the
        gated promote — exactly the window the resume path must heal.
        The post-cycle live-disagreement check runs on the monitor's
        baseline window, so a bad promote demotes itself immediately.
        """
        from repro.learned.lifecycle import campaign_message_window

        def hook(phase: str) -> None:
            if crash_spec is not None and phase == "candidate_saved":
                raise InjectedStudyCrash(
                    f"injected retrain crash at day {day} during "
                    f"{event.name!r} (attempt {attempt} of "
                    f"{crash_spec.failures} scheduled failures)")

        window_X, window_y = campaign_message_window(
            lifecycle.active(), seed, event.name,
            pool_size=event.pool_size, evasion_bias=event.evasion_bias)
        decision = lifecycle.run_cycle(event.name, window_X, window_y,
                                       phase_hook=hook)
        disagreement = lifecycle.check_live_disagreement(
            lifecycle.monitor().baseline_X)
        return {"event": event.name, "scenario_day": event.day,
                "decision": decision.to_dict(),
                "disagreement": disagreement}

    # -- internals ----------------------------------------------------------

    def _build_generators(self, corpus: StudyCorpus) -> List:
        config = self.config
        receiver = ReceiverTypoGenerator(
            corpus, self._rng.child("receiver"),
            yearly_true_typos=config.yearly_true_typos,
            volume_scale=config.ham_scale,
            smtp_domain_leak_rate=config.smtp_domain_leak_rate)
        reflection = ReflectionTypoGenerator(
            corpus, self._rng.child("reflection"),
            signups_per_domain=config.reflection_signups_per_domain,
            volume_scale=config.ham_scale)
        smtp_typo = SmtpTypoGenerator(
            corpus, self._rng.child("smtp-typo"),
            events_per_year=config.smtp_typo_events_per_year,
            volume_scale=config.ham_scale)
        spam = SpamGenerator(corpus, self._rng.child("spam"),
                             config=config.spam,
                             volume_scale=config.spam_scale)
        return [receiver, reflection, smtp_typo, spam]

    def _deliver(self, client: SmtpClient, infra: CollectionInfrastructure,
                 our_domains: Set[str], our_suffixes: Tuple[str, ...],
                 request: SendRequest):
        """One first delivery attempt; returns (result, mode, ip) or None.

        The return value feeds the retry queue when a fault plan is
        active; fault-free runs ignore it, so the attempt itself is
        unchanged from the original single-shot semantics.
        """
        recipient_domain = request.recipient.rpartition("@")[2].lower()
        addressed_to_us = (recipient_domain in our_domains
                           or recipient_domain.endswith(our_suffixes))
        if addressed_to_us:
            # normal MX-routed delivery: sender's MTA resolves our zone
            result = client.send(request.message,
                                 recipient=request.recipient,
                                 port=request.smtp_port,
                                 timestamp=request.timestamp)
            return result, "mx", None
        # third-party recipient: the connection only reaches us because
        # the victim's client (or a port-scanning spammer) targets the
        # study domain's VPS IP directly
        ip = infra.ip_for(request.study_domain) if request.study_domain \
            else None
        if ip is None:
            return None
        result = client.send_to_ip(request.message, request.recipient, ip,
                                   port=request.smtp_port,
                                   timestamp=request.timestamp)
        return result, "ip", ip

    def _drain_retries(self, client: SmtpClient, retry_queue: RetryQueue,
                       before: float) -> None:
        """Attempt every queued delivery due before ``before``.

        Jobs replay their original route (MX resolution or direct-to-IP)
        at their scheduled retry time; outcomes fold back into the queue
        (recovered / requeued with backoff / give-up DSN).
        """
        for job in retry_queue.due(before):
            if job.mode == "ip":
                result = client.send_to_ip(job.message, job.recipient,
                                           job.ip, port=job.port,
                                           timestamp=job.next_attempt)
            else:
                result = client.send(job.message, recipient=job.recipient,
                                     port=job.port,
                                     timestamp=job.next_attempt)
            retry_queue.settle(job, result, job.next_attempt)


@dataclass
class DurableStudyOutcome:
    """What :func:`run_durable_study` hands back after healing a run."""

    results: StudyResults
    restarts: int
    record_sink: Optional[RecordSink] = None


def run_durable_study(config: ExperimentConfig,
                      checkpoint_path: Union[str, Path],
                      record_sink_factory=None,
                      max_restarts: Optional[int] = None,
                      checkpoint_interval: int = 1) -> DurableStudyOutcome:
    """Run a checkpointed study to completion through injected crashes.

    :class:`~repro.faultsim.plan.InjectedStudyCrash` is the faultsim's
    in-process stand-in for a SIGKILL at a day boundary; this driver
    plays the operator's supervisor loop — build a fresh process-worth
    of world (new :class:`StudyRunner`, new sink from the factory) and
    resume from the checkpoint, until the run completes.

    ``max_restarts`` bounds the healing; it defaults to the plan's total
    scheduled failures, so a plan-driven chaos run finishes exactly and
    anything beyond the budget (a genuinely wedged run) re-raises.
    """
    plan = config.fault_plan
    if max_restarts is None:
        max_restarts = sum(spec.failures for spec
                           in (plan.study_crashes if plan is not None
                               else ()))
    restarts = 0
    while True:
        sink = record_sink_factory() if record_sink_factory else None
        runner = StudyRunner(config)
        try:
            results = runner.run(record_sink=sink,
                                 checkpoint_path=checkpoint_path,
                                 checkpoint_interval=checkpoint_interval)
            return DurableStudyOutcome(results=results, restarts=restarts,
                                       record_sink=sink)
        except InjectedStudyCrash:
            restarts += 1
            if restarts > max_restarts:
                raise

