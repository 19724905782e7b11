"""Artifact integrity doctor: validate on-disk run artifacts.

A long campaign leaves a trail of durable files — study checkpoints,
scan checkpoints, persisted typo-risk indexes, typo models, scenarios,
fault plans and the performance baseline — and
each of them can rot: torn writes from a crash mid-save, manual edits,
copies from a different run.  ``repro doctor`` examines each file and
reports problems through the :mod:`repro.util.errors` taxonomy instead
of raw tracebacks.

The five enveloped formats (:mod:`repro.util.artifact`) are identified by
their ``format`` tag alone — for the study and scan checkpoints, which
are journals, the tag on the first line — and validated by the *same*
loader the runtime uses, so a file the doctor passes is a file the
engine will accept — there is no second, drifting schema.  A journal
whose last line is torn is such a file: the engine drops the tail and
resumes from the segment before it, so the doctor reports it healthy
with a note.  A tag of a known format but another version (the
single-snapshot study checkpoint the journal replaced, or a scan
checkpoint of an older layout) goes to that format's loader too, which
refuses it as a foreign format (exit 3) with the format's remedy; so
does a ``repro-scan-baseline`` file, the store the scan checkpoint
replaced.  Only the two untagged
inputs, user-authored fault plans and ``BENCH_perf.json``, are
recognized by shape, and a file with no readable tag (torn, or from
before the envelope) falls back to its name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

from repro.util.artifact import read_json
from repro.util.errors import (
    EXIT_BAD_INPUT,
    EXIT_CORRUPT_CHECKPOINT,
    CheckpointCorruptError,
    ReproError,
)

__all__ = ["Diagnosis", "diagnose_file", "diagnose_paths", "exit_code_for"]

#: artifact kinds :func:`diagnose_file` can identify
KIND_STUDY_CHECKPOINT = "study-checkpoint"
KIND_SCAN_CHECKPOINT = "scan-checkpoint"
KIND_FAULT_PLAN = "fault-plan"
KIND_PERF_BASELINE = "perf-baseline"
KIND_RISK_INDEX = "risk-index"
KIND_TYPO_MODEL = "typo-model"
KIND_SCENARIO = "scenario"
KIND_UNKNOWN = "unknown"


@dataclass
class Diagnosis:
    """One examined file: what it is and whether it is healthy."""

    path: Path
    kind: str
    ok: bool
    problems: List[str] = field(default_factory=list)
    #: small artifact facts worth showing (day counts, digests, shards…)
    details: Dict[str, object] = field(default_factory=dict)
    #: the taxonomy exit code this failure maps to (0 when healthy)
    exit_code: int = 0
    #: what a healthy file still deserves a word about (a dropped tail)
    notes: List[str] = field(default_factory=list)

    def summary_line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = ""
        if self.ok and self.details:
            extra = " (" + ", ".join(f"{key}={value}" for key, value
                                     in sorted(self.details.items())) + ")"
        elif self.problems:
            extra = f": {self.problems[0]}"
        if self.ok and self.notes:
            extra += "; note: " + "; ".join(self.notes)
        return f"{status:4s} {self.kind:17s} {self.path}{extra}"


#: kind, ``load(path, data) -> artifact``, ``details(artifact) -> dict``
_Entry = Tuple[str, Callable[[Path, Dict], object],
               Callable[[object], Dict[str, object]]]

_TORN_TAIL_NOTE = ("the last line is a torn append; it is dropped and a "
                   "resume starts from the segment before it")


def _load_study_journal(path: Path):
    from repro.experiment.checkpoint import StudyCheckpoint

    checkpoint = StudyCheckpoint(path)
    return checkpoint, checkpoint.load()


def _study_journal_details(loaded) -> Dict[str, object]:
    checkpoint, payload = loaded
    return {"segments": checkpoint.segments,
            "next_day": payload["next_day"],
            "torn_tail": checkpoint.torn_tail,
            "mode": payload["state"].get("mode"),
            "sent": payload["state"].get("sent")}


def _enveloped_formats() -> Dict[str, _Entry]:
    """Every enveloped format, keyed by its tag without the ``@version``."""
    from repro.experiment.checkpoint import STUDY_JOURNAL_FORMAT
    from repro.experiment.parallel import SCAN_CHECKPOINT_FORMAT, ScanCheckpoint
    from repro.learned.model import LEARNED_MODEL_FORMAT, load_model
    from repro.scenario.timeline import SCENARIO_FORMAT, Scenario
    from repro.service.index import RISK_INDEX_FORMAT, TypoRiskIndex

    study_journal: _Entry = (
        KIND_STUDY_CHECKPOINT,
        lambda path, data: _load_study_journal(path),
        _study_journal_details)
    scan_checkpoint: _Entry = (
        KIND_SCAN_CHECKPOINT,
        # the identity comes from the file itself, so only a corrupt
        # file can fail here
        lambda path, data: ScanCheckpoint.open(path),
        lambda checkpoint: {"seed": checkpoint.identity["seed"],
                            "max_rank": checkpoint.max_rank,
                            "shards_done": checkpoint.completed_count,
                            "torn_tail": checkpoint.torn_tail})
    table: Dict[str, _Entry] = {
        STUDY_JOURNAL_FORMAT: study_journal,
        # the single-snapshot study checkpoint the journal replaced: its
        # files reach the journal loader, which refuses them (exit 3)
        "repro-study-checkpoint": study_journal,
        SCAN_CHECKPOINT_FORMAT: scan_checkpoint,
        # the delta-scan baseline the scan checkpoint replaced: its files
        # reach the checkpoint loader, which refuses them (exit 3)
        "repro-scan-baseline": scan_checkpoint,
        RISK_INDEX_FORMAT: (
            KIND_RISK_INDEX,
            lambda path, data: TypoRiskIndex.load(path),
            lambda index: {"seed": index.seed, "max_rank": index.max_rank,
                           "day": index.day,
                           "head_buckets": index.head_bucket_count}),
        LEARNED_MODEL_FORMAT: (
            KIND_TYPO_MODEL,
            lambda path, data: load_model(path),
            lambda model: {"seed": model.seed,
                           "schema": model.schema_version,
                           "stumps": len(model.domain.stumps)
                           + len(model.message.stumps)}),
        SCENARIO_FORMAT: (
            KIND_SCENARIO,
            lambda path, data: Scenario.load(path),
            lambda scenario: {"seed": scenario.seed, "name": scenario.name,
                              "events": len(scenario.events),
                              "last_day": scenario.last_event_day()}),
    }
    return {_family(tag): entry for tag, entry in table.items()}


def _family(tag: object) -> str:
    return str(tag).partition("@")[0]


def diagnose_file(path: Union[str, Path]) -> Diagnosis:
    """Identify and validate one artifact file."""
    path = Path(path)
    try:
        data = read_json(path, "file")
    except CheckpointCorruptError as error:
        if isinstance(error.__cause__, OSError):
            # a missing path or a directory is a bad argument, not rot
            return Diagnosis(path=path, kind=KIND_UNKNOWN, ok=False,
                             problems=[str(error)],
                             exit_code=EXIT_BAD_INPUT)
        problem = str(error)
        # a journal is one envelope per line: its first line names it
        data = _first_line_object(path)
    if data is not None:
        entry = _enveloped_formats().get(_family(data.get("format")))
        if entry is not None:
            kind, load, details = entry
            try:
                artifact = load(path, data)
            except ReproError as error:
                return Diagnosis(path=path, kind=kind, ok=False,
                                 problems=[str(error)],
                                 exit_code=error.exit_code)
            facts = details(artifact)
            if "digest" in data:
                facts["digest"] = str(data["digest"])[:12]
            notes = [_TORN_TAIL_NOTE] if facts.get("torn_tail") else []
            return Diagnosis(path=path, kind=kind, ok=True, details=facts,
                             notes=notes)
        if "baseline" in data and isinstance(data["baseline"], dict):
            return _check_perf_baseline(path, data)
        if "seed" in data and _PLAN_KEYS & set(data):
            return _check_fault_plan(path, data)
        problem = ("not a recognized repro artifact (no known format tag, "
                   "and not a fault plan or perf baseline)")
    # no readable tag: the name is the only evidence left
    kind, code = _kind_from_name(path)
    return Diagnosis(path=path, kind=kind, ok=False, problems=[problem],
                     exit_code=code)


def _first_line_object(path: Path):
    """The JSON object on the first line of ``path``, or None."""
    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.readline())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def diagnose_paths(paths) -> List[Diagnosis]:
    return [diagnose_file(path) for path in paths]


def exit_code_for(diagnoses: List[Diagnosis]) -> int:
    """The doctor's process exit code: the worst finding wins.

    Corrupt checkpoints (3) outrank bad input files (2) outrank healthy
    (0) — a supervisor script keying on the exit code learns the most
    severe category it must deal with.
    """
    codes = [d.exit_code for d in diagnoses if not d.ok]
    if not codes:
        return 0
    if EXIT_CORRUPT_CHECKPOINT in codes:
        return EXIT_CORRUPT_CHECKPOINT
    return max(codes)


def _kind_from_name(path: Path) -> tuple:
    """Best-effort kind (and exit code) for a file with no readable tag."""
    name = path.name.lower()
    if "plan" in name:
        return KIND_FAULT_PLAN, EXIT_BAD_INPUT
    if "ckpt" in name or "checkpoint" in name:
        # can't tell study from scan without content; either way the
        # remedy (and exit code) is the same
        return KIND_STUDY_CHECKPOINT, EXIT_CORRUPT_CHECKPOINT
    if "index" in name:
        # same story for a torn persisted risk index: durable state
        # the service would refuse, so exit 3
        return KIND_RISK_INDEX, EXIT_CORRUPT_CHECKPOINT
    if "model" in name:
        # a torn typo-model artifact is the same durable-state story
        return KIND_TYPO_MODEL, EXIT_CORRUPT_CHECKPOINT
    if "scenario" in name:
        # a torn scenario timeline can't be trusted to replay; exit 3
        return KIND_SCENARIO, EXIT_CORRUPT_CHECKPOINT
    return KIND_UNKNOWN, EXIT_BAD_INPUT


# -- the two untagged inputs ----------------------------------------------------

_PLAN_KEYS = frozenset({"collector_outages", "dns_spells", "smtp_spells",
                        "shard_crashes", "study_crashes", "service_spells",
                        "retry"})


def _check_fault_plan(path: Path, data: Dict) -> Diagnosis:
    from repro.faultsim.plan import FaultPlan

    try:
        plan = FaultPlan.from_dict(data)
    except (ValueError, TypeError, KeyError) as error:
        return Diagnosis(path=path, kind=KIND_FAULT_PLAN, ok=False,
                         problems=[f"invalid fault plan: {error}"],
                         exit_code=EXIT_BAD_INPUT)
    details = {
        "digest": plan.digest()[:12],
        "empty": plan.is_empty,
        "service_spells": len(plan.service_spells),
    }
    return Diagnosis(path=path, kind=KIND_FAULT_PLAN, ok=True,
                     details=details)


def _check_perf_baseline(path: Path, data: Dict) -> Diagnosis:
    problems: List[str] = []
    baseline = data["baseline"]
    study = baseline.get("study")
    if not isinstance(study, dict):
        problems.append("baseline.study section missing")
    else:
        for key in ("wall_seconds", "emails_sent", "records"):
            value = study.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"baseline.study.{key} missing or negative")
    for section in ("scan", "streaming_scan"):
        block = baseline.get(section)
        if block is not None and not isinstance(block, dict):
            problems.append(f"baseline.{section} is not an object")
    if problems:
        return Diagnosis(path=path, kind=KIND_PERF_BASELINE, ok=False,
                         problems=problems, exit_code=EXIT_BAD_INPUT)
    details = {"sections": len([k for k in baseline
                                if isinstance(baseline[k], dict)])}
    return Diagnosis(path=path, kind=KIND_PERF_BASELINE, ok=True,
                     details=details)
