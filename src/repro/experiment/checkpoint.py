"""Crash-safe, day-granular checkpointing for the study engine.

The paper's collection ran for seven months on infrastructure that *did*
die mid-window; a reproduction at that scale needs the same property the
original pipeline had — kill it on any day, restart it, and lose nothing.
:class:`StudyCheckpoint` persists the full simulation state at a day
boundary as one canonical-JSON file:

* **atomic** and **self-verifying**: it is saved and loaded through the
  shared artifact envelope (:mod:`repro.util.artifact`), so a crash
  mid-write leaves the previous checkpoint intact, and bit rot or
  truncation is detected on load (and by the ``doctor`` CLI command)
  instead of surfacing as weird downstream divergence;
* **identity-checked**: the ``config`` block is the canonical identity of
  every knob that shapes the record stream; resuming under a different
  config is a :class:`~repro.util.errors.CheckpointMismatchError`, not a
  silently different experiment.

What goes in the ``state`` block is the runner's business (RNG stream
positions, retry queue, collector accounting, classifier fold, … — see
``StudyRunner._capture_state``); this module owns only the payload
schema and its validation.

``crash_attempts`` rides outside ``state``: it counts how many times each
:class:`~repro.faultsim.plan.StudyCrashSpec` day has been reached *across
process restarts*, which is what lets a ``failures=N`` spec kill the run
exactly N times and then let the resumed run through.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.util.artifact import ArtifactFormat, load_artifact, save_artifact
from repro.util.errors import CheckpointMismatchError

__all__ = [
    "STUDY_CHECKPOINT_FORMAT",
    "config_identity",
    "StudyCheckpoint",
]

#: Bump the suffix when the payload layout changes incompatibly; loaders
#: reject other versions loudly instead of misreading them.  ``@2`` moved
#: the self-digest from ``payload_sha256`` to the shared envelope.
STUDY_CHECKPOINT_FORMAT = "repro-study-checkpoint@2"

_ARTIFACT = ArtifactFormat(STUDY_CHECKPOINT_FORMAT, "study checkpoint",
                           "delete it to start fresh")


def config_identity(config) -> Dict:
    """Canonical identity of every config knob that shapes the run.

    ``classify_jobs`` is deliberately excluded: stage-A parallelism never
    changes the record stream (the classify-pipeline tests pin that), so
    a checkpoint written at ``--jobs 1`` is legitimately resumable at
    ``--jobs 4`` and vice versa.  Everything else — seed, scales, window
    outages, fault plan, memory mode — must match exactly.
    """
    return {
        "seed": config.seed,
        "ham_scale": config.ham_scale,
        "spam_scale": config.spam_scale,
        "outage_spans": [list(span) for span in config.outage_spans],
        "yearly_true_typos": config.yearly_true_typos,
        "smtp_domain_leak_rate": config.smtp_domain_leak_rate,
        "smtp_typo_events_per_year": config.smtp_typo_events_per_year,
        "reflection_signups_per_domain":
            config.reflection_signups_per_domain,
        "spam": asdict(config.spam),
        "process_non_spam": config.process_non_spam,
        "smtp_forwarding": config.smtp_forwarding,
        "fault_plan": (config.fault_plan.to_dict()
                       if config.fault_plan is not None else None),
        "streaming_classify": config.streaming_classify,
        "retain_messages": config.retain_messages,
        **({"scenario": config.scenario.to_dict()}
           if getattr(config, "scenario", None) is not None else {}),
    }


class StudyCheckpoint:
    """One study run's durable state file (the write-ahead day snapshot).

    The file is a single artifact envelope::

        {"format": ..., "config": ..., "next_day": N,
         "crash_attempts": {day: count}, "state": {...}, "digest": ...}

    ``next_day`` is the first day that still needs simulating: the state
    reflects every day strictly before it, so a resume re-enters the day
    loop at exactly that index.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    # -- persistence ---------------------------------------------------------

    def save(self, identity: Dict, next_day: int,
             crash_attempts: Dict[int, int], state: Dict) -> None:
        """Atomically replace the checkpoint with a new day snapshot."""
        save_artifact(self.path, {
            "format": STUDY_CHECKPOINT_FORMAT,
            "config": identity,
            "next_day": next_day,
            "crash_attempts": {str(day): count for day, count
                               in sorted(crash_attempts.items())},
            "state": state,
        })

    def load(self, expected_identity: Optional[Dict] = None) -> Dict:
        """Read and fully validate the checkpoint; return its payload.

        Raises :class:`~repro.util.errors.CheckpointCorruptError` for
        anything unreadable (missing file, torn write, truncation,
        missing fields, digest mismatch) and
        :class:`CheckpointMismatchError` when the file is a valid
        checkpoint for a *different* run (format version or config
        identity).
        """
        def decode(payload: Dict) -> Dict:
            for key in ("config", "next_day", "crash_attempts", "state"):
                if key not in payload:
                    raise KeyError(key)
            if (expected_identity is not None
                    and payload["config"] != expected_identity):
                raise CheckpointMismatchError(
                    f"study checkpoint {self.path} was written for a "
                    f"different configuration (seed/scales/plan/mode "
                    f"differ); refusing to resume a different experiment")
            return payload

        return load_artifact(self.path, _ARTIFACT, decode)

    # -- convenience views ---------------------------------------------------

    @staticmethod
    def crash_attempts_from(payload: Dict) -> Dict[str, int]:
        """The persisted study-crash attempt counters.

        Keys are strings: ``"12"`` for a day-boundary crash spec and
        ``"12:retrain"`` for a retrain-phase spec on day 12 (see
        :class:`~repro.faultsim.plan.StudyCrashSpec`).
        """
        return {str(day): count for day, count
                in payload["crash_attempts"].items()}
