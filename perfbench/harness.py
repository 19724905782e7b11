"""Measurement machinery shared by every workload: host probe and
normalised intervals, cache resets, the cross-run count store, and the
result line.

Host-normalised time
--------------------
Every timed interval (or segment of one) is bracketed by a fixed
pure-Python host probe (:func:`host_probe`), and reported as
``measured * PROBE_REF_S / probe`` where ``probe`` is the mean of the
bracketing probe readings.  The probe is independent of the program
under test, so a faster program lowers the normalised time by the same
factor as the raw time, while a host that runs everything at half speed
for a minute (see ``run.py``) moves both the interval and the probe and
largely cancels out.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: probe reading (seconds) that defines one "reference second"; a typical
#: fast-mode reading on the 2-core host the benchmark was tuned on
PROBE_REF_S = 0.020

#: passes of the probe taken at a :meth:`HostClock.split`: units split
#: every ~0.2 s, so a short probe keeps the probing overhead near 10%
SPLIT_PROBE_PASSES = 1

_PROBE_WORDS = tuple(("w%05d" % i) * 3 for i in range(4000))


def _probe_once() -> float:
    """One pass of a fixed integer loop plus a small dict/str/hash loop.

    The dict/str half matters: the host's slow stretches slowed the
    workloads' dict- and string-heavy code up to 2x while a pure integer
    loop read unchanged.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    table: Dict[str, int] = {}
    for shift in range(4):
        for word in _PROBE_WORDS:
            key = word[shift:] + word[:shift]
            table[key] = table.get(key, 0) + len(key)
        sorted(table)
        for word in _PROBE_WORDS[:1000]:
            hashlib.sha1(word.encode()).digest()
    return time.perf_counter() - start


def host_probe(passes: int = 5) -> float:
    """Mean of ``passes`` passes of :func:`_probe_once` (~0.02 s each).

    The mean tracked unit times better than the median or the minimum
    of the same passes on the host this was tuned on.  The cyclic
    collector is off while probing, so no collection of what the
    workload left on the heap lands inside a probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.fmean(_probe_once() for _ in range(passes))
    finally:
        if enabled:
            gc.enable()


class Segment:
    """One stretch of a timed interval: raw seconds and the probes that
    bracket it."""

    __slots__ = ("raw", "before", "after")

    def __init__(self, raw: float, before: float, after: float) -> None:
        self.raw = raw
        self.before = before
        self.after = after

    @property
    def factor(self) -> float:
        """``PROBE_REF_S / probe``: multiply a time measured inside the
        segment by it to normalise that time."""
        return PROBE_REF_S / ((self.before + self.after) / 2.0)


class Interval:
    """One timed interval: one segment, or several when the timed
    function called :meth:`HostClock.split`."""

    __slots__ = ("segments",)

    def __init__(self, segments: List[Segment]) -> None:
        self.segments = segments

    @property
    def raw(self) -> float:
        return sum(seg.raw for seg in self.segments)

    @property
    def norm(self) -> float:
        return sum(seg.raw * seg.factor for seg in self.segments)

    @property
    def factor(self) -> float:
        """The interval's effective factor, ``norm / raw``."""
        raw = self.raw
        return self.norm / raw if raw > 0 else self.segments[0].factor


class HostClock:
    """Times intervals between host probes.

    The closing probe runs right after the interval.  Variants that
    closed each interval with the next unit's probe (on a collected
    heap), or that used one factor per run, tracked the units worse on
    the tuning host.  A unit that lasts a second or more can call
    :meth:`split` at fixed points of its work: the host switches speed
    within a unit, and per-segment factors follow it.  On study_durable
    (5 seeds, 3-4 units each) the coefficient of variation of the
    normalised unit time within a run was 8.1% with whole units and
    2.0% with 32 segments of ~0.2 s.  Every probe reading is kept for
    the run's ``host.probe_s`` report.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._segments: List[Segment] = []
        self._open: Optional[tuple] = None   # (segment start, probe)

    def probe(self, passes: int = 5) -> float:
        value = host_probe(passes)
        self.probes.append(value)
        return value

    def timed(self, fn: Callable[[], object],
              sample_every: Optional[float] = None):
        """Run ``fn`` between two probes; return ``(result, Interval)``.

        With ``sample_every`` (seconds), a real-time timer signal calls
        :meth:`split` at that period while ``fn`` runs: for a unit that
        is one call into the program with no place to split it.  Only
        for units without per-request timings, which a probe landing
        inside a request would inflate.
        """
        self._segments = []
        before = self.probe()
        if sample_every:
            previous = signal.signal(signal.SIGALRM,
                                     lambda signum, frame: self.split())
        self._open = (time.perf_counter(), before)
        try:
            if sample_every:
                signal.setitimer(signal.ITIMER_REAL, sample_every,
                                 sample_every)
            result = fn()
            if sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
            # taken in one step, so a signal still pending cannot split
            # the last segment after its end was read
            opened, self._open = self._open, None
            end = time.perf_counter()
            start, before = opened
            self._segments.append(Segment(end - start, before,
                                          self.probe()))
            return result, Interval(self._segments)
        finally:
            self._open = None
            if sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)

    def split(self) -> None:
        """Close the current segment of the running interval with a probe
        and open the next; the probe's own time is left out.  Outside
        :meth:`timed`, and inside another split, this does nothing."""
        end = time.perf_counter()
        opened, self._open = self._open, None
        if opened is None:
            return
        start, before = opened
        after = self.probe(SPLIT_PROBE_PASSES)
        self._segments.append(Segment(end - start, before, after))
        self._open = (time.perf_counter(), after)

    def probe_summary(self) -> Dict[str, float]:
        return {"median": statistics.median(self.probes),
                "min": min(self.probes)}


def reset_caches() -> None:
    """Make the next unit start cold: collect garbage, clear every
    process-wide memo the program keeps."""
    from repro import core
    from repro.util.textcache import iter_memos

    gc.collect()
    for memo in iter_memos():
        memo.clear()
    core.clear_kernel_caches()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timer_overhead_ns(samples: int = 200_000) -> float:
    """Median cost of one back-to-back ``perf_counter`` pair, in ns."""
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(samples):
            clock()
            clock()
        costs.append((clock() - start) / samples)
    return statistics.median(costs) * 1e9


def source_digest(root: Path, bench: Path) -> str:
    """SHA-256 over the program's and the benchmark's sources: keys the
    cross-run count store."""
    digest = hashlib.sha256()
    paths = list((root / "src").rglob("*.py")) + list(bench.glob("*.py"))
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts_across_runs(store: Path, key: str,
                             counts: Dict[str, object]) -> Optional[str]:
    """Compare ``counts`` with an earlier run of the same key, or record
    them.  Returns a description of the mismatch, or ``None``."""
    path = store / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return f"counts differ from an earlier run ({path.name}): " \
                   f"{earlier} != {counts}"
        return None
    store.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return None


def result_line(*, correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    """The benchmark's last stdout line: ``metrics`` maps name to
    ``(value, unit)``."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
