"""Configuration of the end-to-end seven-month study simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.faultsim.plan import FaultPlan
from repro.scenario.timeline import Scenario
from repro.workloads.spamgen import SpamConfig

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for a full study run.

    Two scales govern traffic volume.  ``ham_scale`` applies to the true
    typo streams (receiver, reflection, SMTP mistakes) and defaults to
    1.0 — the real-world rates are only a few thousand emails a year and
    simulating them in full is cheap.  ``spam_scale`` applies to the spam
    streams, whose real volume (~119M/year) would be pointless to
    simulate; the default keeps spam dominant by an order of magnitude
    (preserving the classification problem's imbalance) while staying
    fast.  Analyses that quote paper-comparable yearly numbers divide
    each stream by its scale (see ``analysis.volume``).
    """

    seed: int = 2016
    ham_scale: float = 1.0
    spam_scale: float = 5e-4
    #: collection outage day-spans (start, end), mirroring the paper's
    #: lost months; empty tuple = perfect collection
    outage_spans: Tuple[Tuple[int, int], ...] = ((75, 135),)
    #: yearly true receiver/reflection typo calibration (paper: ~6,041)
    yearly_true_typos: float = 5300.0
    #: receiver typos arriving at SMTP-purpose domains (paper: ~700/yr)
    smtp_domain_leak_rate: float = 700.0
    #: new SMTP-typo victims per year across the corpus
    smtp_typo_events_per_year: float = 220.0
    #: reflection signups per reflection-purpose domain
    reflection_signups_per_domain: int = 6
    spam: SpamConfig = field(default_factory=SpamConfig)
    #: scrub+process non-spam emails (needed for Figure 6)
    process_non_spam: bool = True
    #: deterministic chaos schedule (see :mod:`repro.faultsim`); None or
    #: an empty plan reproduces the fault-free byte stream exactly
    fault_plan: Optional[FaultPlan] = None
    #: worker processes for the classify stage's pure per-message work
    #: (None/1 = inline); the record stream is byte-identical at any value
    classify_jobs: Optional[int] = None
    #: classify day-by-day inside the window loop instead of batching the
    #: whole corpus at the end; same record stream, different schedule
    streaming_classify: bool = False
    #: keep delivered messages in the collector corpus after their record
    #: is emitted; False bounds memory at paper scale (streaming only)
    retain_messages: bool = True
    #: spam arm of the post-window batch classification: "funnel" (the
    #: rule layers, default), "learned" (the trained model replaces the
    #: funnel's spam verdicts), or "both" (union of the two)
    detector: str = "funnel"
    #: path to a persisted ``repro-typo-model@1`` artifact; required
    #: whenever ``detector`` is not "funnel"
    model_path: Optional[str] = None
    #: living-internet timeline driven alongside the study day loop
    #: (see :mod:`repro.scenario`); None = today's static world,
    #: byte-identical to running without a scenario at all
    scenario: Optional[Scenario] = None
    #: directory for the drift lifecycle's active/candidate/previous
    #: model artifacts; defaults to ``<checkpoint>.models`` when a
    #: checkpoint path is given.  Only consulted when the scenario
    #: schedules ``retrain=True`` campaign events under a learned
    #: detector
    model_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ham_scale <= 0 or self.spam_scale <= 0:
            raise ValueError("scales must be positive")
        if self.yearly_true_typos < 0:
            raise ValueError("yearly_true_typos must be non-negative")
        if self.classify_jobs is not None and self.classify_jobs < 1:
            raise ValueError("classify_jobs must be >= 1")
        if self.streaming_classify and self.classify_jobs is not None \
                and self.classify_jobs > 1:
            raise ValueError(
                "streaming_classify classifies each day inline; "
                "classify_jobs > 1 needs the batch classifier")
        if not self.retain_messages and not self.streaming_classify:
            raise ValueError(
                "retain_messages=False requires streaming_classify=True")
        if self.detector not in ("funnel", "learned", "both"):
            raise ValueError(
                "detector must be one of: funnel, learned, both")
        if self.detector != "funnel" and self.streaming_classify:
            raise ValueError(
                "the learned detector runs in the batch classifier; "
                "disable streaming_classify")
        if self.scenario is not None and any(
                event.retrain for event in self.scenario.events) \
                and self.detector == "funnel" and self.model_dir:
            raise ValueError(
                "model_dir is only meaningful when retrain events run "
                "under a learned detector (detector != 'funnel')")
