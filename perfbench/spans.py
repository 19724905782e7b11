"""Per-layer attribution for the traced run.

While a :class:`Tracer` is installed, each layer's public entry points
are wrapped (from here, not inside the program) so that every call
records a span ``(name, start, end, parent, unit)`` in memory.  A
layer's self time is its spans' durations minus the part their child
spans cover; ``residual_s`` is the unit's wall-clock minus all named
spans, so the named self times plus the residual add up to the unit's
wall-clock by construction.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (owner import path, attribute, span name) per wrapped entry point
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.hamgen:ReceiverTypoGenerator", "emails_for_day",
     "workloads.generate"),
    ("repro.workloads.reflection:ReflectionTypoGenerator", "emails_for_day",
     "workloads.generate"),
    ("repro.workloads.smtp_typo:SmtpTypoGenerator", "emails_for_day",
     "workloads.generate"),
    ("repro.workloads.spamgen:SpamGenerator", "emails_for_day",
     "workloads.generate"),
    ("repro.smtpsim.client:SmtpClient", "send", "smtpsim.deliver"),
    ("repro.smtpsim.client:SmtpClient", "send_to_ip", "smtpsim.deliver"),
    ("repro.experiment.runner", "classify_corpus_records",
     "experiment.classify"),
    ("repro.experiment.classify:StreamingClassifier", "feed",
     "experiment.classify"),
    ("repro.experiment.classify:StreamingClassifier", "finalize",
     "experiment.classify"),
    ("repro.experiment.classify", "tokenize", "pipeline.tokenize"),
    ("repro.spamfilter.funnel:FilterFunnel", "summarize",
     "spamfilter.score"),
    ("repro.spamfilter.funnel:SummaryFold", "feed",
     "experiment.classify.fold"),
    ("repro.spamfilter.funnel:SummaryFold", "finalize",
     "experiment.classify.fold"),
    ("repro.experiment.classify", "_emit_records",
     "experiment.classify.emit"),
    ("repro.experiment.classify:StreamingClassifier", "_emit",
     "experiment.classify.emit"),
    ("repro.experiment.classify:StreamingClassifier", "state_dict",
     "experiment.checkpoint.capture"),
    ("repro.experiment.checkpoint:StudyCheckpoint", "save",
     "experiment.checkpoint.save"),
    ("repro.ecosystem.world:WorldModel", "scan_ranks", "ecosystem.scan"),
    ("repro.features.domains", "featurize_domains", "features.featurize"),
    ("repro.features.domains", "block_matrix", "features.matrix"),
    ("repro.learned.model:LaneModel", "scores", "learned.score"),
    ("repro.service.engine:RiskEngine", "lookup", "service.engine"),
    ("repro.service.index:TypoRiskIndex", "candidate_ranks",
     "service.retrieval"),
    ("repro.service.index:TypoRiskIndex", "is_registered_typo",
     "service.registered"),
    ("repro.service.engine:RiskEngine", "hot_swap", "service.swap"),
    ("repro.service.index:TypoRiskIndex", "save", "service.index_save"),
)

#: every span name, in report order
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    name for _, _, name in ENTRY_POINTS))

#: entry points whose first argument's ``path`` attribute (or second
#: argument) names the file just written, for the bytes counters
_FILE_WRITERS = {
    "experiment.checkpoint.save": lambda args: args[0].path,
    "service.index_save": lambda args: args[1],
}


def _resolve(spec: str):
    import importlib

    module_name, _, attr = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """Records spans for the entry points above while installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.unit = 0
        self.file_bytes: Dict[str, int] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        writer = _FILE_WRITERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.unit)
                if writer is not None:
                    tracer.file_bytes[name] = tracer.file_bytes.get(
                        name, 0) + os.path.getsize(writer(args))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for spec, attr, name in ENTRY_POINTS:
            owner = _resolve(spec)
            # the raw attribute, so static/class methods stay what they are
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, unit: int) -> Tuple[Dict[str, float],
                                             Dict[str, int]]:
        """Per-name self seconds and call counts for one unit's spans."""
        totals = {name: 0.0 for name in SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        child_time: Dict[int, float] = {}
        rows = [(i, span) for i, span in enumerate(self.spans)
                if span[4] == unit]
        for i, (name, start, end, parent, _) in rows:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    end - start)
        for i, (name, start, end, parent, _) in rows:
            totals[name] += (end - start) - child_time.get(i, 0.0)
            calls[name] += 1
        return totals, calls

    def write(self, path: Path) -> None:
        """Write every recorded span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, unit in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "unit": unit}) + "\n")


def traced(tracer: Tracer, fn: Callable[[], object],
           unit: int) -> Callable[[], object]:
    """``fn`` wrapped so that the tracer is installed only while it runs."""
    def run():
        tracer.unit = unit
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()
    return run


def perf_crosscheck(totals: Dict[str, float],
                    perf_timers: Optional[Dict]) -> Dict[str, float]:
    """Span totals over the study's own ``StudyResults.perf`` timers.

    Each ratio compares a span with the program timer wrapped around the
    same calls; the span time is self time, so the ratio is at most ~1.
    """
    if not perf_timers:
        return {}
    pairs = {
        "generate": (("workloads.generate",), "generate"),
        "tokenize": (("pipeline.tokenize",), "classify.tokenize"),
        "score": (("spamfilter.score",), "classify.score"),
        "checkpoint": (("experiment.checkpoint.capture",
                        "experiment.checkpoint.save"), "checkpoint"),
    }
    out = {}
    for key, (spans, timer) in pairs.items():
        seconds = perf_timers.get(timer, {}).get("seconds", 0.0)
        if seconds > 0:
            out[key] = sum(totals[span] for span in spans) / seconds
    return out
