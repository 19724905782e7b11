"""Lightweight performance instrumentation: timers and counters.

The study harness is a simulation, so "how fast is it" is a first-class
reproduction artifact: the perf registry collects per-subsystem wall-clock
timers (context managers around each phase) and monotonically increasing
call/byte counters, and snapshots them into plain dicts that ride along on
:class:`~repro.experiment.runner.StudyResults`.

The registry is deliberately dependency-free and picklable so the
parallel study engine can ship snapshots across process boundaries.

The benchmarks' speed record, ``BENCH_perf.json``, is one
``repro-bench@1`` artifact of named sections, each
``{baseline, latest, history}``: :func:`record_bench` is its one writer
and :func:`load_bench` its one reader.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.util.artifact import ArtifactFormat, load_artifact, write_atomic

__all__ = ["TimerStat", "PerfRegistry", "paused_gc", "throughput",
           "BENCH_FORMAT", "record_bench", "load_bench"]


@dataclass
class TimerStat:
    """Accumulated wall-clock for one named timer."""

    calls: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "seconds": self.seconds}


@dataclass
class PerfRegistry:
    """Named timers + counters for one run (or one subsystem).

    ``timer`` nests and re-enters freely; ``count`` accumulates integers
    (calls, emails, bytes).  ``snapshot`` returns plain nested dicts so
    results stay picklable and JSON-serialisable.
    """

    timers: Dict[str, TimerStat] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.calls += 1
            stat.seconds += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_seconds(self, name: str, seconds: float,
                    calls: int = 1) -> None:
        """Fold externally measured wall-clock into timer ``name``.

        The parallel classify stage times its work inside worker
        processes and ships the seconds back; this folds them into the
        same timer namespace the inline path uses.
        """
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.calls += calls
        stat.seconds += seconds

    def seconds(self, name: str) -> float:
        """Accumulated seconds under timer ``name`` (0.0 when unused)."""
        stat = self.timers.get(name)
        return stat.seconds if stat is not None else 0.0

    def merge(self, other: "PerfRegistry") -> None:
        """Fold another registry's timers/counters into this one."""
        for name, stat in other.timers.items():
            mine = self.timers.get(name)
            if mine is None:
                mine = self.timers[name] = TimerStat()
            mine.calls += stat.calls
            mine.seconds += stat.seconds
        for name, amount in other.counters.items():
            self.count(name, amount)

    def snapshot(self, extra: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        """Plain-dict view: ``{"timers": ..., "counters": ..., **extra}``."""
        out: Dict[str, Any] = {
            "timers": {name: stat.as_dict()
                       for name, stat in self.timers.items()},
            "counters": dict(self.counters),
        }
        if extra:
            out.update(extra)
        return out


@contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend the cyclic garbage collector for a bulk-allocation phase.

    Classifying a paper-scale corpus allocates millions of small objects
    into a steadily growing live set; each generation-0 collection then
    rescans survivors for cycles that never exist (records, summaries and
    tokenised emails are all acyclic, so refcounting already frees every
    dead object).  Pausing collection for the phase removes that rescan
    tax — measured ~35% of classify wall-clock at 10x study scale.
    Re-enables only if the collector was enabled on entry, so nesting and
    caller-level ``gc.disable()`` are both safe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def throughput(count: int, seconds: float) -> float:
    """Events per second, 0.0 when the denominator is degenerate."""
    if seconds <= 0:
        return 0.0
    return count / seconds


#: artifact format tag of the bench record; bump when its layout changes
BENCH_FORMAT = "repro-bench@1"
#: recorded runs a section keeps besides its baseline
BENCH_HISTORY_LIMIT = 50

_SECTION_KEYS = frozenset({"baseline", "latest", "history"})
# digest-optional: re-baselining is deleting a section by hand
_BENCH = ArtifactFormat(BENCH_FORMAT, "bench record",
                        "delete it, or the broken section, to re-baseline",
                        digest_optional=True)


def _bench_sections(data: Dict) -> Dict[str, Dict]:
    sections = data["sections"]
    for name, section in sections.items():
        missing = _SECTION_KEYS - set(section)
        if missing:
            raise ValueError(f"section {name!r} lacks {sorted(missing)}")
    return sections


def load_bench(path: Union[str, Path]) -> Dict[str, Dict]:
    """The sections of the bench record at ``path``, ``{}`` if it is absent.

    Refused through the artifact taxonomy: another ``format`` tag is a
    mismatch, a section without ``baseline``, ``latest`` or ``history``
    (or a digest that is present but wrong) is corrupt.
    """
    if not Path(path).exists():
        return {}
    return load_artifact(path, _BENCH, _bench_sections)


def record_bench(path: Union[str, Path], section: str,
                 entry: Dict[str, Any]) -> Dict[str, Any]:
    """Record ``entry`` as the latest run of ``section``; return the section.

    The entry is stamped with ``recorded_utc``.  A section's first
    recording is its baseline, which later recordings never move; each
    one becomes ``latest`` and joins a ``history`` of the last
    :data:`BENCH_HISTORY_LIMIT` runs.  The file is rewritten atomically
    as indented JSON.
    """
    sections = load_bench(path)
    stamped = dict(entry, recorded_utc=datetime.now(timezone.utc).isoformat(
        timespec="seconds"))
    held = sections.setdefault(section, {"baseline": stamped})
    held["latest"] = stamped
    held["history"] = (held.get("history", []) + [stamped])[
        -BENCH_HISTORY_LIMIT:]
    write_atomic(path, json.dumps({"format": BENCH_FORMAT,
                                   "sections": sections}, indent=2) + "\n")
    return held
