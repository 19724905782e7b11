"""Drift-resilient model lifecycle: detect → shadow-retrain → gated swap.

The learned detector (PR 9) is a live system: when an adaptive squatter
campaign re-weights its lures against the deployed model, recall rots
silently.  This module closes the loop:

* :func:`campaign_message_window` — the adversary.  A campaign drafts a
  pool of candidate lure messages (a fresh seeded corpus keyed by the
  campaign name), scores them with the *incumbent* model, and keeps the
  spam that best evades it (``evasion_bias`` controls how much of the
  kept window is adversarially selected).  Recall degradation on the
  kept window is by construction — the arms-race framing of Spaulding
  et al. made deterministic.
* :class:`DriftMonitor` — the detector.  A training-time baseline
  (fixed-bin score histogram + recall on an in-distribution window) is
  compared against each observed window; the drift score is the total
  variation distance between histograms max-ed with the clipped recall
  drop, and the monitor trips at a threshold.  Pure arithmetic — the
  same window yields the same score at any ``--jobs``.
* :func:`shadow_retrain` — the healer.  Retrains the message lane on
  the base training distribution plus the *retrain half* of the drift
  window (deterministic even/odd split; the odd half stays held out
  for the gate).  The domain lane is carried over unchanged — campaign
  drift shifts the message distribution, not the registration
  landscape.
* :func:`gate_candidate` — the gate.  The candidate must beat the
  incumbent's recall on the held-out half *and* not regress on the
  baseline window; otherwise it is rejected and the incumbent stays.
* :class:`ModelLifecycle` — the promote/rollback machinery.  Active,
  candidate, and previous models live as ``repro-typo-model@1``
  artifacts in one directory, every transition is an atomic
  ``save_model`` / ``os.replace`` step with ``phase_hook`` injection
  points, so SIGKILL at *any* boundary leaves only doctor-valid
  artifacts and a deterministic re-run converges to the same state.
  A post-promote live-disagreement check demotes a bad promote
  (rollback to the previous model, zero drops — every verdict stays
  labeled with the model that produced it).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.features.schema import MESSAGE_FEATURES
from repro.learned.evaluate import SCORE_THRESHOLD
from repro.learned.model import TypoModel, load_model, save_model
from repro.learned.train import (
    TrainConfig,
    build_message_training_set,
    train_lane,
)
from repro.util.artifact import json_digest
from repro.util.errors import ConfigError
from repro.util.rand import derive_seed

__all__ = [
    "DriftMonitor",
    "DriftReport",
    "GateDecision",
    "LifecycleDecision",
    "ModelLifecycle",
    "campaign_message_window",
    "gate_candidate",
    "shadow_retrain",
    "run_drift_drill",
]

#: fixed histogram bin edges for score-distribution digests
_SCORE_BINS = 16

#: default drift-score trip threshold
DRIFT_THRESHOLD = 0.15

#: candidate must not regress baseline recall by more than this
BASELINE_MARGIN = 0.02

#: post-promote live disagreement rate that demotes the candidate
DISAGREEMENT_THRESHOLD = 0.25


def _recall(model: TypoModel, X: np.ndarray, y: np.ndarray) -> float:
    """Message-lane recall at the standard threshold (NaN-free)."""
    spam = y >= 0.5
    if not spam.any():
        return 1.0
    pred = model.message.scores(X[spam]) >= SCORE_THRESHOLD
    return float(pred.sum()) / float(spam.sum())


def _histogram(scores: np.ndarray) -> np.ndarray:
    """Normalized fixed-bin histogram of sigmoid scores."""
    counts, _ = np.histogram(scores, bins=_SCORE_BINS, range=(0.0, 1.0))
    total = counts.sum()
    if total == 0:
        return np.zeros(_SCORE_BINS, dtype=np.float64)
    return counts.astype(np.float64) / float(total)


def campaign_message_window(model: TypoModel, seed: int, name: str, *,
                            pool_size: int,
                            evasion_bias: float
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Draft the campaign's adversarially-selected message window.

    The pool is a fresh labelled corpus keyed by ``(seed, campaign
    name)``; the campaign keeps *half* its spam drafts, filling
    ``evasion_bias`` of the kept slots with the lowest-scoring (most
    evading) drafts under the incumbent and the rest in stream order.
    The adversarially-kept drafts are then *mutated* toward the pool's
    ham centroid in feature space (the campaign rewrites its lures to
    look like the mail the detector passes — coverage-driven
    re-weighting made deterministic); ham rides along untouched.  Rows
    come back in ascending pool order, so the window is byte-identical
    regardless of scoring hardware or shard layout.
    """
    if pool_size < 1:
        raise ConfigError("campaign pool_size must be >= 1")
    X, y = build_message_training_set(
        derive_seed(seed, f"campaign/{name}"), pool_size,
        purpose=f"campaign/{name}")
    spam_idx = np.flatnonzero(y >= 0.5)
    ham_idx = np.flatnonzero(y < 0.5)
    if spam_idx.size == 0 or ham_idx.size == 0:
        return X, y
    scores = model.message.scores(X[spam_idx])
    evading_order = spam_idx[np.argsort(scores, kind="stable")]
    keep_n = max(1, spam_idx.size // 2)
    adversarial_n = int(round(keep_n * evasion_bias))
    kept = [int(idx) for idx in evading_order[:adversarial_n]]
    kept_set = set(kept)
    for idx in spam_idx:
        if len(kept) >= keep_n:
            break
        if int(idx) not in kept_set:
            kept.append(int(idx))
            kept_set.add(int(idx))
    X = X.copy()
    if adversarial_n:
        mutated = evading_order[:adversarial_n]
        ham_centroid = X[ham_idx].mean(axis=0)
        X[mutated] = ((1.0 - evasion_bias) * X[mutated]
                      + evasion_bias * ham_centroid[None, :])
    rows = np.asarray(sorted(kept_set | set(int(i) for i in ham_idx)),
                      dtype=np.int64)
    return X[rows], y[rows]


@dataclass(frozen=True)
class DriftReport:
    """One window's drift verdict against the training baseline."""

    window: str
    drift_score: float
    tv_distance: float
    recall: float
    baseline_recall: float
    tripped: bool

    def to_dict(self) -> Dict:
        return {
            "window": self.window,
            "drift_score": round(self.drift_score, 12),
            "tv_distance": round(self.tv_distance, 12),
            "recall": round(self.recall, 12),
            "baseline_recall": round(self.baseline_recall, 12),
            "tripped": self.tripped,
        }


class DriftMonitor:
    """Compares observed message windows against a training baseline.

    The baseline is the incumbent's score histogram and recall on an
    in-distribution window (purpose ``drift-baseline``, disjoint from
    the training and evaluation streams).  ``observe`` is pure
    arithmetic over the window — no RNG, no wall clock — so monitors
    on different processes agree bit-for-bit.
    """

    def __init__(self, model: TypoModel, seed: int, *,
                 baseline_size: int = 200,
                 threshold: float = DRIFT_THRESHOLD) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigError("drift threshold must be in (0, 1]")
        self.seed = seed
        self.threshold = threshold
        X, y = build_message_training_set(
            derive_seed(seed, "drift-baseline"), baseline_size,
            purpose="drift-baseline")
        self.baseline_X = X
        self.baseline_y = y
        self.baseline_hist = _histogram(model.message.scores(X))
        self.baseline_recall = _recall(model, X, y)
        self.reports: list = []

    def observe(self, model: TypoModel, name: str,
                X: np.ndarray, y: np.ndarray) -> DriftReport:
        """Score one observed window; returns (and records) the report."""
        hist = _histogram(model.message.scores(X))
        tv_distance = float(np.abs(hist - self.baseline_hist).sum()) / 2.0
        recall = _recall(model, X, y)
        recall_drop = max(0.0, self.baseline_recall - recall)
        drift_score = max(tv_distance, min(1.0, recall_drop))
        report = DriftReport(
            window=name, drift_score=drift_score, tv_distance=tv_distance,
            recall=recall, baseline_recall=self.baseline_recall,
            tripped=drift_score >= self.threshold)
        self.reports.append(report)
        return report

    def digest(self) -> str:
        """SHA-256 over every report so far — the drift trajectory pin."""
        return json_digest([report.to_dict() for report in self.reports])


def _split_window(X: np.ndarray, y: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic even/odd split: (retrain_X, retrain_y, held_X, held_y)."""
    return X[0::2], y[0::2], X[1::2], y[1::2]


def shadow_retrain(model: TypoModel, seed: int, name: str,
                   window_X: np.ndarray, window_y: np.ndarray, *,
                   train_size: int = 200,
                   config: TrainConfig = TrainConfig()) -> TypoModel:
    """Train a candidate on base distribution + the window's retrain half.

    Only the message lane retrains; the domain lane carries over.  The
    candidate's provenance records what it was retrained against, so
    its digest differs from the incumbent's even when weights converge.
    """
    retrain_X, retrain_y, _, _ = _split_window(window_X, window_y)
    base_X, base_y = build_message_training_set(
        derive_seed(seed, "drift-baseline"), train_size,
        purpose="drift-baseline")
    X = np.vstack([base_X, retrain_X])
    y = np.concatenate([base_y, retrain_y])
    message = train_lane(X, y, derive_seed(seed, f"retrain/{name}"),
                         "message", MESSAGE_FEATURES, config)
    provenance = dict(model.provenance)
    provenance["retrained_window"] = name
    provenance["retrain_rows"] = int(X.shape[0])
    return TypoModel(seed=model.seed, schema_version=model.schema_version,
                     domain=model.domain, message=message,
                     provenance=provenance)


@dataclass(frozen=True)
class GateDecision:
    """The held-out evaluation verdict on a candidate model."""

    promote: bool
    incumbent_recall: float
    candidate_recall: float
    incumbent_baseline_recall: float
    candidate_baseline_recall: float
    reason: str

    def to_dict(self) -> Dict:
        return {
            "promote": self.promote,
            "incumbent_recall": round(self.incumbent_recall, 12),
            "candidate_recall": round(self.candidate_recall, 12),
            "incumbent_baseline_recall":
                round(self.incumbent_baseline_recall, 12),
            "candidate_baseline_recall":
                round(self.candidate_baseline_recall, 12),
            "reason": self.reason,
        }


def gate_candidate(incumbent: TypoModel, candidate: TypoModel,
                   window_X: np.ndarray, window_y: np.ndarray,
                   baseline_X: np.ndarray, baseline_y: np.ndarray
                   ) -> GateDecision:
    """Held-out gate: promote only a strict improvement.

    The candidate must beat the incumbent on the window's held-out half
    (the odd rows the retrain never saw) and stay within
    :data:`BASELINE_MARGIN` of the incumbent on the baseline window —
    a candidate that heals drift by forgetting the base distribution is
    rejected.
    """
    _, _, held_X, held_y = _split_window(window_X, window_y)
    incumbent_recall = _recall(incumbent, held_X, held_y)
    candidate_recall = _recall(candidate, held_X, held_y)
    incumbent_base = _recall(incumbent, baseline_X, baseline_y)
    candidate_base = _recall(candidate, baseline_X, baseline_y)
    if candidate_recall <= incumbent_recall:
        reason = "candidate does not beat incumbent on held-out window"
        promote = False
    elif candidate_base < incumbent_base - BASELINE_MARGIN:
        reason = "candidate regresses the baseline distribution"
        promote = False
    else:
        reason = "candidate beats incumbent and holds the baseline"
        promote = True
    return GateDecision(
        promote=promote, incumbent_recall=incumbent_recall,
        candidate_recall=candidate_recall,
        incumbent_baseline_recall=incumbent_base,
        candidate_baseline_recall=candidate_base, reason=reason)


@dataclass(frozen=True)
class LifecycleDecision:
    """One full cycle's outcome: drift report + gate + transition."""

    window: str
    action: str                   # "hold" | "promote" | "reject"
    drift: DriftReport
    gate: Optional[GateDecision]
    active_digest: str

    def to_dict(self) -> Dict:
        return {
            "window": self.window,
            "action": self.action,
            "drift": self.drift.to_dict(),
            "gate": self.gate.to_dict() if self.gate else None,
            "active_digest": self.active_digest,
        }


def _noop_hook(phase: str) -> None:
    return None


class ModelLifecycle:
    """Active/candidate/previous model artifacts with atomic transitions.

    Layout inside ``directory``::

        active.json     the serving model (always present, doctor-valid)
        candidate.json  the last shadow-retrained candidate (transient)
        previous.json   the demotion target after a promote

    Every write is an atomic :func:`save_model`; every transition is a
    single ``os.replace``.  ``phase_hook(label)`` fires before/after
    each boundary (labels: ``trained``, ``candidate_saved``, ``gated``,
    ``previous_saved``, ``promoted``, ``rolled_back``) — the SIGKILL
    tests kill the process inside the hook and assert the directory
    still holds only doctor-valid artifacts and that a re-run converges
    to the same state.
    """

    def __init__(self, directory: Union[str, Path], seed: int, *,
                 threshold: float = DRIFT_THRESHOLD,
                 baseline_size: int = 200,
                 train_config: TrainConfig = TrainConfig()) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.threshold = threshold
        self.baseline_size = baseline_size
        self.train_config = train_config
        self._monitor: Optional[DriftMonitor] = None
        self.decisions: list = []

    @property
    def active_path(self) -> Path:
        return self.directory / "active.json"

    @property
    def candidate_path(self) -> Path:
        return self.directory / "candidate.json"

    @property
    def previous_path(self) -> Path:
        return self.directory / "previous.json"

    def initialize(self, model: TypoModel, *,
                   overwrite: bool = False) -> str:
        """Install the first active model (idempotent); returns digest.

        ``overwrite=True`` re-seeds the directory from ``model`` and
        clears candidate/previous leftovers — the study runner uses it
        at every (re)start so a resumed run replays the lifecycle fold
        from the same initial state a crash-free run started from.
        """
        if overwrite or not self.active_path.exists():
            for path in (self.candidate_path, self.previous_path):
                if path.exists():
                    path.unlink()
            self._monitor = None
            self.decisions = []
            return save_model(model, str(self.active_path))
        return self.active().digest()

    def active(self) -> TypoModel:
        return load_model(str(self.active_path))

    def monitor(self) -> DriftMonitor:
        """The drift monitor, built lazily against the active model."""
        if self._monitor is None:
            self._monitor = DriftMonitor(
                self.active(), self.seed,
                baseline_size=self.baseline_size,
                threshold=self.threshold)
        return self._monitor

    def run_cycle(self, name: str, window_X: np.ndarray,
                  window_y: np.ndarray, *,
                  phase_hook: Callable[[str], None] = _noop_hook
                  ) -> LifecycleDecision:
        """One full detect → retrain → gate → promote/reject cycle.

        Pure fold over ``(active model, window)``: re-running the same
        cycle after a crash at any phase boundary reaches the same
        decision and the same on-disk state.
        """
        incumbent = self.active()
        monitor = self.monitor()
        drift = monitor.observe(incumbent, name, window_X, window_y)
        if not drift.tripped:
            decision = LifecycleDecision(
                window=name, action="hold", drift=drift, gate=None,
                active_digest=incumbent.digest())
            self.decisions.append(decision)
            return decision

        candidate = shadow_retrain(
            incumbent, self.seed, name, window_X, window_y,
            train_size=self.baseline_size, config=self.train_config)
        phase_hook("trained")
        save_model(candidate, str(self.candidate_path))
        phase_hook("candidate_saved")

        gate = gate_candidate(incumbent, candidate, window_X, window_y,
                              monitor.baseline_X, monitor.baseline_y)
        phase_hook("gated")
        if gate.promote:
            save_model(incumbent, str(self.previous_path))
            phase_hook("previous_saved")
            os.replace(self.candidate_path, self.active_path)
            phase_hook("promoted")
            # the monitor keeps its incumbent baseline on purpose: the
            # drift trajectory stays comparable across promotes
            action = "promote"
            active_digest = candidate.digest()
        else:
            action = "reject"
            active_digest = incumbent.digest()
        decision = LifecycleDecision(
            window=name, action=action, drift=drift, gate=gate,
            active_digest=active_digest)
        self.decisions.append(decision)
        return decision

    def check_live_disagreement(self, X: np.ndarray, *,
                                threshold: float = DISAGREEMENT_THRESHOLD,
                                phase_hook: Callable[[str], None]
                                = _noop_hook) -> Dict:
        """Demote the active model if it disagrees with its predecessor.

        Compares active vs. previous verdicts on a live window; a
        disagreement rate past ``threshold`` triggers a rollback (one
        atomic ``os.replace``).  Verdicts stay labeled with the model
        digest that produced them, and nothing is dropped — the caller
        keeps serving through the swap.
        """
        if not self.previous_path.exists():
            return {"checked": False, "disagreement": 0.0,
                    "rolled_back": False}
        active = self.active()
        previous = load_model(str(self.previous_path))
        active_pred = active.message.scores(X) >= SCORE_THRESHOLD
        previous_pred = previous.message.scores(X) >= SCORE_THRESHOLD
        disagreement = (float(np.sum(active_pred != previous_pred))
                        / max(1, X.shape[0]))
        rolled_back = False
        if disagreement > threshold:
            os.replace(self.previous_path, self.active_path)
            phase_hook("rolled_back")
            self._monitor = None
            rolled_back = True
        return {"checked": True,
                "disagreement": round(disagreement, 12),
                "rolled_back": rolled_back,
                "active_digest": self.active().digest()}

    def decisions_digest(self) -> str:
        """SHA-256 over every lifecycle decision — the promote/rollback
        trajectory pin."""
        return json_digest([d.to_dict() for d in self.decisions])


def run_drift_drill(directory: Union[str, Path], seed: int, *,
                    train_ranks: int = 300,
                    train_dataset_size: int = 40,
                    pool_size: int = 400,
                    evasion_bias: float = 0.9,
                    campaign: str = "adaptive-campaign",
                    threshold: float = DRIFT_THRESHOLD,
                    reset: bool = False,
                    phase_hook: Callable[[str], None] = _noop_hook
                    ) -> Dict:
    """The end-to-end drill: campaign → trip → retrain → gated promote.

    Returns a JSON-clean report with wall-clock timings (train, cycle)
    and the deterministic trajectory digests the bench and the
    acceptance tests pin.  Everything except the timings is a pure
    function of ``(seed, drill parameters)``.

    ``reset=True`` re-seeds the directory from a fresh deterministic
    train before running — the recovery semantic after a kill at a
    promote/rollback boundary: replaying the whole fold from the
    initial model converges on the same bytes a crash-free drill wrote.
    """
    from repro.learned.train import train_typo_model

    t0 = time.perf_counter()
    lifecycle = ModelLifecycle(directory, seed, threshold=threshold)
    if lifecycle.active_path.exists() and not reset:
        model = lifecycle.active()
        train_seconds = 0.0
    else:
        model, _ = train_typo_model(seed, ranks=train_ranks,
                                    dataset_size=train_dataset_size)
        train_seconds = time.perf_counter() - t0
        lifecycle.initialize(model, overwrite=reset)

    incumbent = lifecycle.active()
    window_X, window_y = campaign_message_window(
        incumbent, seed, campaign, pool_size=pool_size,
        evasion_bias=evasion_bias)
    pre_recall = _recall(incumbent, window_X, window_y)

    t1 = time.perf_counter()
    decision = lifecycle.run_cycle(campaign, window_X, window_y,
                                   phase_hook=phase_hook)
    cycle_seconds = time.perf_counter() - t1
    post_recall = _recall(lifecycle.active(), window_X, window_y)
    disagreement = lifecycle.check_live_disagreement(
        lifecycle.monitor().baseline_X, phase_hook=phase_hook)

    return {
        "seed": seed,
        "campaign": campaign,
        "pre_drift_recall": round(lifecycle.monitor().baseline_recall, 12),
        "window_recall_before": round(pre_recall, 12),
        "window_recall_after": round(post_recall, 12),
        "decision": decision.to_dict(),
        "disagreement": disagreement,
        "drift_digest": lifecycle.monitor().digest(),
        "decisions_digest": lifecycle.decisions_digest(),
        "active_digest": lifecycle.active().digest(),
        "train_seconds": train_seconds,
        "cycle_seconds": cycle_seconds,
    }
