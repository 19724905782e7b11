"""Crash-safe, day-granular checkpointing for the study engine.

The paper's collection ran for seven months on infrastructure that *did*
die mid-window; a reproduction at that scale needs the same property the
original pipeline had — kill it on any day, restart it, and lose nothing.
:class:`StudyCheckpoint` persists the simulation state at day boundaries
as an append-only journal in one file:

* **one segment per save**: the first line is a base segment and every
  later save appends a delta segment holding only what changed — the
  day's new classifier items, changed counters, and the small pieces
  (RNG positions, collector, generators, …) written whole — so a save
  costs O(that day's mail) instead of O(everything held so far);
* **atomic** and **self-verifying**: every segment is an artifact
  envelope (:mod:`repro.util.artifact`) whose digest covers a ``prev``
  key holding the previous segment's digest.  A crash mid-append leaves
  a torn tail that the next load drops (and the next append cuts), and
  bit rot, truncation or a broken chain is detected on load (and by the
  ``doctor`` CLI command) instead of surfacing as weird downstream
  divergence;
* **compacted**: once the bytes that later segments superseded exceed
  the live bytes, the next save rewrites the file as one base segment
  through :func:`~repro.util.artifact.write_segment`'s atomic path;
* **identity-checked**: the base segment's ``config`` block is the
  canonical identity of every knob that shapes the record stream;
  resuming under a different config is a
  :class:`~repro.util.errors.CheckpointMismatchError`, not a silently
  different experiment.

What goes in the ``state`` block is the runner's business (RNG stream
positions, retry queue, collector accounting, classifier fold, … — see
``StudyRunner._capture_state``); append-only parts of it arrive as
:mod:`repro.util.journal` fields, and a load replays every segment into
the same full state dict.

``crash_attempts`` rides outside ``state``: it counts how many times each
:class:`~repro.faultsim.plan.StudyCrashSpec` day has been reached *across
process restarts*, which is what lets a ``failures=N`` spec kill the run
exactly N times and then let the resumed run through.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.util.artifact import ArtifactFormat, read_journal, write_segment
from repro.util.errors import CheckpointMismatchError
from repro.util.journal import JournalCursor, Replay
from repro.util.perf import paused_gc

__all__ = [
    "COMPACTION_RATIO",
    "STUDY_JOURNAL_FORMAT",
    "config_identity",
    "StudyCheckpoint",
]

#: Bump the suffix when the segment layout changes incompatibly; loaders
#: reject other versions loudly instead of misreading them.  The
#: single-snapshot ``repro-study-checkpoint@1``/``@2`` files this
#: journal replaced are refused the same way.
STUDY_JOURNAL_FORMAT = "repro-study-journal@1"

_ARTIFACT = ArtifactFormat(STUDY_JOURNAL_FORMAT, "study checkpoint",
                           "delete it to start fresh")

#: a save rewrites the journal as one base segment once the bytes later
#: segments superseded exceed this multiple of the live bytes, which
#: keeps the file within about twice its live bytes
COMPACTION_RATIO = 1


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
        # the direct-callback topology is gone; the key stays so that
        # journals written before its removal still resume
        "smtp_forwarding": True,
        "fault_plan": (config.fault_plan.to_dict()
                       if config.fault_plan is not None else None),
        "streaming_classify": config.streaming_classify,
        "retain_messages": config.retain_messages,
        **({"scenario": config.scenario.to_dict()}
           if getattr(config, "scenario", None) is not None else {}),
    }


class StudyCheckpoint:
    """One study run's durable state journal (the write-ahead day log).

    Each line of the file is one artifact envelope::

        {"format": ..., "prev": <digest of the line before, or null>,
         "next_day": N, "crash_attempts": {day: count},
         "state": {...}, "appended": [path, ...], "counted": [path, ...],
         "whole_bytes": W, "superseded": S, "digest": ...}

    plus ``"config"`` on the base segment.  ``state`` is a delta: the
    fields listed in ``appended`` hold new items, those in ``counted``
    the changed entries, and every other leaf is the value at that save.
    ``whole_bytes`` is the encoded size of those whole leaves (what the
    next segment supersedes); ``superseded`` is the running total of
    superseded bytes in the file, which drives compaction.

    ``next_day`` is the first day that still needs simulating: the state
    reflects every day strictly before it, so a resume re-enters the day
    loop at exactly that index.

    A checkpoint object appends only to a journal it wrote or loaded
    itself; the first save on a fresh object writes a base segment.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._cursor = JournalCursor()
        self._identity: Optional[Dict] = None
        #: digest of the last segment, None until this object wrote or
        #: loaded the journal
        self._head: Optional[str] = None
        self._size = 0
        self._whole_bytes = 0
        self._superseded = 0
        #: what the last :meth:`load` found
        self.segments = 0
        self.torn_tail = False

    def exists(self) -> bool:
        return self.path.exists()

    # -- persistence ---------------------------------------------------------

    def save(self, identity: Dict, next_day: int,
             crash_attempts: Dict[int, int], state: Dict) -> None:
        """Durably record the state at a day boundary.

        Appends one delta segment, or rewrites the file as one base
        segment when this object holds no journal yet, the identity
        changed, or superseded bytes exceed live bytes.
        """
        header = {
            "format": STUDY_JOURNAL_FORMAT,
            "next_day": next_day,
            "crash_attempts": {str(day): count for day, count
                               in sorted(crash_attempts.items())},
        }
        base = (self._head is None or identity != self._identity
                or self._superseded
                > COMPACTION_RATIO * (self._size - self._superseded))
        cursor = JournalCursor() if base else self._cursor
        # the encoded segment is an acyclic tree that refcounting frees;
        # collections would only rescan the classifier's live items
        with paused_gc():
            delta = cursor.delta(state)
            if base:
                superseded = 0
                header.update(prev=None, config=identity)
            else:
                superseded = (self._superseded + self._whole_bytes
                              + delta.rewritten_bytes)
                header["prev"] = self._head
            digest, size = write_segment(self.path, {
                **header,
                "state": delta.state,
                "appended": delta.appended,
                "counted": delta.counted,
                "whole_bytes": delta.whole_bytes,
                "superseded": superseded,
            }, at=None if base else self._size)
        cursor.commit(delta)
        self._cursor = cursor
        self._identity = identity
        self._head = digest
        self._size = size if base else self._size + size
        self._whole_bytes = delta.whole_bytes
        self._superseded = superseded

    def load(self, expected_identity: Optional[Dict] = None) -> Dict:
        """Read, verify and replay the journal; return the full payload.

        The payload is ``{config, next_day, crash_attempts, state}`` as
        of the last complete segment, ``state`` being the full state
        dict.  Raises :class:`~repro.util.errors.CheckpointCorruptError`
        for anything unreadable (missing file, a torn or invalid base
        segment, a bad digest or broken ``prev`` chain on any complete
        line, missing fields) and :class:`CheckpointMismatchError` when
        the file is another format or a valid journal for a *different*
        run (config identity).  Afterwards this object appends to the
        journal it loaded.
        """
        replay = Replay()
        #: the base and the latest segment, without their state
        seen: Dict[str, Dict] = {}

        def fold(segment: Dict) -> None:
            for key in ("next_day", "crash_attempts", "state",
                        "appended", "counted", "whole_bytes",
                        "superseded"):
                if key not in segment:
                    raise KeyError(key)
            if not seen:
                if "config" not in segment:
                    raise KeyError("config")
                if (expected_identity is not None
                        and segment["config"] != expected_identity):
                    raise CheckpointMismatchError(
                        f"study checkpoint {self.path} was written for a "
                        f"different configuration (seed/scales/plan/mode "
                        f"differ); refusing to resume a different "
                        f"experiment")
            replay.add(segment)
            del segment["state"]
            seen.setdefault("base", segment)
            seen["last"] = segment

        found = read_journal(self.path, _ARTIFACT, fold)
        last = seen["last"]
        payload = {
            "config": seen["base"]["config"],
            "next_day": last["next_day"],
            "crash_attempts": last["crash_attempts"],
            "state": replay.state,
        }
        self._cursor = replay.cursor()
        self._identity = payload["config"]
        self._head = found.head
        self._size = found.end
        self._whole_bytes = last["whole_bytes"]
        self._superseded = last["superseded"]
        self.segments = found.segments
        self.torn_tail = found.torn_tail
        return payload

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
