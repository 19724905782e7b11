"""Table-3-style evaluation: learned vs. funnel vs. combined, per corpus.

For each synthetic corpus the harness scores three detectors against the
same ground truth:

* ``funnel``   — the rule funnel's two-pass ``classify_corpus`` verdicts
  (spam iff :class:`~repro.spamfilter.funnel.Verdict` is ``SPAM``);
* ``learned``  — the message-lane model, threshold 0.5, on summaries from
  a no-layer funnel (no rule verdicts leak into the features);
* ``combined`` — spam iff either flags it.

Spam-only archives (untroubled) have no negatives, so precision is NaN
there by construction — the report prints ``-`` exactly like Table 3.

The domain lane is evaluated on a held-out rank window the training sweep
never saw.  Everything is deterministic from ``(model digest, seed)`` —
the report carries a metrics digest so two runs (or two ``--jobs``) can
be compared byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.features.domains import featurize_domains
from repro.features.messages import message_feature_matrix
from repro.learned.model import TypoModel
from repro.util.artifact import json_digest
from repro.util.rand import SeededRng, derive_seed
from repro.util.stats import BinaryClassificationScores, score_binary

__all__ = ["CorpusEval", "EvaluationReport", "evaluate_model",
           "SCORE_THRESHOLD"]

#: spam / squat decision threshold on the sigmoid score
SCORE_THRESHOLD = 0.5


def _metric_triplet(scores: BinaryClassificationScores) -> Dict[str, float]:
    return {
        "precision": scores.precision,
        "recall": scores.recall,
        "true_positives": scores.true_positives,
        "false_positives": scores.false_positives,
        "false_negatives": scores.false_negatives,
        "true_negatives": scores.true_negatives,
    }


@dataclass
class CorpusEval:
    """One corpus row of the Table-3-style comparison."""

    name: str
    size: int
    spam_count: int
    detectors: Dict[str, BinaryClassificationScores] = field(
        default_factory=dict)

    def to_payload(self) -> Dict:
        return {
            "name": self.name,
            "size": self.size,
            "spam_count": self.spam_count,
            "detectors": {k: _metric_triplet(v)
                          for k, v in sorted(self.detectors.items())},
        }


@dataclass
class EvaluationReport:
    """The full harness output: message corpora plus the domain window."""

    seed: int
    model_digest: str
    corpora: List[CorpusEval]
    domain: CorpusEval
    domain_window: Tuple[int, int]

    def to_payload(self) -> Dict:
        return {
            "seed": self.seed,
            "model_digest": self.model_digest,
            "corpora": [c.to_payload() for c in self.corpora],
            "domain": self.domain.to_payload(),
            "domain_window": list(self.domain_window),
        }

    def metrics_digest(self) -> str:
        """SHA-256 over the canonical metrics payload.

        NaN precision (spam-only corpora) is serialized as the string
        ``"nan"`` so the canonical form stays valid JSON and compares
        equal across runs.
        """
        def _clean(obj):
            if isinstance(obj, dict):
                return {k: _clean(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [_clean(v) for v in obj]
            if isinstance(obj, float) and math.isnan(obj):
                return "nan"
            return obj

        return json_digest(_clean(self.to_payload()))

    def format_table(self) -> str:
        """Render the Table-3-style comparison as aligned text."""
        def fmt(value: float) -> str:
            return "-" if math.isnan(value) else f"{value:6.3f}"

        lines = [
            f"{'corpus':<14} {'n':>6} {'spam':>6} "
            f"{'learned P':>9} {'R':>6} {'funnel P':>9} {'R':>6} "
            f"{'combined P':>10} {'R':>6}"
        ]
        for row in [*self.corpora, self.domain]:
            learned = row.detectors["learned"]
            funnel = row.detectors.get("funnel")
            combo = row.detectors.get("combined")
            cells = [f"{row.name:<14}", f"{row.size:>6}",
                     f"{row.spam_count:>6}",
                     f"{fmt(learned.precision):>9}",
                     f"{fmt(learned.recall):>6}"]
            if funnel is not None and combo is not None:
                cells += [f"{fmt(funnel.precision):>9}",
                          f"{fmt(funnel.recall):>6}",
                          f"{fmt(combo.precision):>10}",
                          f"{fmt(combo.recall):>6}"]
            else:
                cells += [f"{'-':>9}", f"{'-':>6}",
                          f"{'-':>10}", f"{'-':>6}"]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def evaluate_model(model: TypoModel, seed: int, *,
                   dataset_size: int = 2_000,
                   domain_window: Optional[Tuple[int, int]] = None,
                   max_rank: Optional[int] = None) -> EvaluationReport:
    """Score the model against the funnel on fresh evaluation data.

    Evaluation corpora are drawn from a different seed purpose
    (``eval-mail``) than training, and the domain window defaults to the
    2 000 ranks immediately after the training sweep — held out by
    construction.
    """
    from repro.spamfilter.funnel import FilterFunnel, Verdict
    from repro.workloads.datasets import DATASET_PROFILES, build_dataset

    lane = model.message
    corpora: List[CorpusEval] = []
    root = SeededRng(derive_seed(seed, "eval-mail"))
    summarizer = FilterFunnel(("workplace.example",), enabled_layers=())
    for name, profile in DATASET_PROFILES.items():
        dataset = build_dataset(profile, dataset_size, root.child(name))
        actual = list(dataset.labels)
        pairs = [(tok, summarizer.summarize(tok))
                 for tok in dataset.emails]
        X = message_feature_matrix(pairs)
        learned_pred = [bool(s) for s in
                        (lane.scores(X) >= SCORE_THRESHOLD)]
        funnel = FilterFunnel(("workplace.example",))
        funnel_pred = [res.verdict is Verdict.SPAM
                       for res in funnel.classify_corpus(dataset.emails)]
        combined = [a or b for a, b in zip(learned_pred, funnel_pred)]
        corpora.append(CorpusEval(
            name=name, size=len(dataset), spam_count=sum(actual),
            detectors={
                "learned": score_binary(learned_pred, actual),
                "funnel": score_binary(funnel_pred, actual),
                "combined": score_binary(combined, actual),
            }))

    train_ranks = int(model.provenance.get("train_ranks", 20_000))
    if domain_window is None:
        domain_window = (train_ranks + 1, train_ranks + 2_001)
    start, stop = domain_window
    sweep = featurize_domains(
        model.seed, start, stop,
        max_rank=max_rank or max(stop - 1, train_ranks))
    xs, ys = [], []
    for X, y, _ in sweep.matrices():
        xs.append(X)
        ys.append(y)
    domain_lane = model.domain
    if xs:
        Xd = np.vstack(xs)
        yd = np.concatenate(ys)
        pred = domain_lane.scores(Xd) >= SCORE_THRESHOLD
        domain_scores = score_binary([bool(p) for p in pred],
                                     [bool(v) for v in yd])
        n_rows = int(Xd.shape[0])
        n_spam = int(yd.sum())
    else:
        domain_scores = score_binary([], [])
        n_rows = n_spam = 0
    domain = CorpusEval(
        name="domains", size=n_rows, spam_count=n_spam,
        detectors={"learned": domain_scores})

    return EvaluationReport(
        seed=seed, model_digest=model.digest(), corpora=corpora,
        domain=domain, domain_window=(start, stop))
