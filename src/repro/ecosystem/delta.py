"""Incremental (delta) re-scans of the lazy typosquatting world.

A monitoring service re-scans the DL-1 typo space daily (the framing in
Spaulding et al.'s typosquatting-landscape survey); a full Alexa-1M
re-scan every day costs the whole universe even though registrations and
expirations touch a tiny fraction of ranks.  This module makes a re-scan
cost proportional to what *changed*:

* :class:`ChurnSchedule` derives each day's registration/expiration
  churn deterministically from ``(seed, day)`` — rank ``r`` churns on
  day ``d`` iff its day-``d`` uniform falls below the daily rate.  A
  churned rank's *generation* increments; the
  :class:`~repro.ecosystem.world.WorldModel` re-keys that rank's
  registration/wild/probe streams by generation, so its DL-1 grid
  re-rolls (some ctypos expire, others register) while every untouched
  rank stays byte-identical to day 0.
* :class:`ScanBaseline` persists a completed scan as the rank-range
  runner's (:func:`repro.experiment.parallel.run_ranges`) per-range
  records, each stamped with the *world digest* of its range (a hash of
  the churn generations inside it); a scan checkpoint stores the same.
* :func:`delta_scan` is the runner with the baseline's records as its
  store: a range whose world digest still matches is reused, the rest
  are scanned in the day-``N`` world.  The delta tests pin it
  byte-identical to a full scan of that world.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.internet import InternetConfig
from repro.util.artifact import (
    ArtifactFormat,
    json_digest,
    load_artifact,
    save_artifact,
)
from repro.util.errors import CheckpointMismatchError
from repro.util.perf import PerfRegistry

__all__ = [
    "SCAN_BASELINE_FORMAT",
    "ChurnSchedule",
    "WorldEvent",
    "WorldEvolution",
    "RangeRecord",
    "ScanBaseline",
    "DeltaScanResult",
    "build_scan_baseline",
    "delta_scan",
    "world_range_digest",
]

#: artifact format tag; bump when the on-disk schema changes (``@2``
#: added the envelope digest over the whole file)
SCAN_BASELINE_FORMAT = "repro-scan-baseline@2"

_ARTIFACT = ArtifactFormat(SCAN_BASELINE_FORMAT, "scan baseline",
                           "rebuild it with a full scan")

_DEFAULT_RANGE_WIDTH = 1024


@dataclass(frozen=True)
class ChurnSchedule:
    """Deterministic daily registration/expiration churn.

    Day ``d``'s events are a pure function of ``(seed, d)``: rank ``r``
    churns on day ``d`` iff the ``r``-th uniform of the day-keyed
    "churn" stream falls below ``daily_rate``.  Generations accumulate
    across days, so the world at day ``N`` is independent of how many
    intermediate snapshots were taken along the way.
    """

    seed: int
    max_rank: int
    daily_rate: float = 0.004

    def __post_init__(self) -> None:
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if not 0.0 <= self.daily_rate <= 1.0:
            raise ValueError("daily_rate must be in [0, 1]")

    def day_events(self, day: int) -> List[int]:
        """The ranks that churn on ``day`` (1-based), ascending."""
        if day < 1:
            raise ValueError("days are 1-based")
        from repro.ecosystem.world import _rank_uniforms

        uniforms = _rank_uniforms(self.seed, "churn", day, self.max_rank)
        return (np.flatnonzero(uniforms < self.daily_rate) + 1).tolist()

    def generations(self, days: int) -> Dict[int, int]:
        """Cumulative churn map after ``days`` days: rank -> generation.

        Only churned ranks appear (generation >= 1); every absent rank
        is generation 0 — byte-identical to the day-0 world.
        """
        if days < 0:
            raise ValueError("days must be non-negative")
        if days == 0 or self.daily_rate == 0.0:
            return {}
        from repro.ecosystem.world import _rank_uniforms

        counts: Optional[np.ndarray] = None
        for day in range(1, days + 1):
            uniforms = _rank_uniforms(self.seed, "churn", day, self.max_rank)
            hits = uniforms < self.daily_rate
            counts = hits.astype(np.int64) if counts is None else counts + hits
        churned = np.flatnonzero(counts)
        return {int(position) + 1: int(counts[position])
                for position in churned}


@dataclass(frozen=True)
class WorldEvent:
    """One discrete ecosystem event applied on ``day``.

    The event churns each rank in ``[rank_lo, rank_hi]`` independently
    with probability ``rate``; whether rank ``r`` churns is a pure hash
    of ``(seed, name, r)`` (via :func:`~repro.util.rand.derive_seed`),
    so replay is byte-identical at any shard layout and independent of
    event ordering.  A churned rank's generation bumps by one — the
    same re-keying law :class:`ChurnSchedule` uses, so registrations,
    expirations, and re-registrations all fall out of the world model's
    generation streams.
    """

    name: str
    day: int
    rank_lo: int
    rank_hi: int
    rate: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event name must be non-empty")
        if self.day < 1:
            raise ValueError("event days are 1-based")
        if self.rank_lo < 1 or self.rank_hi < self.rank_lo:
            raise ValueError("need 1 <= rank_lo <= rank_hi")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def churned_ranks(self, seed: int) -> List[int]:
        """Ranks this event churns under ``seed`` (ascending)."""
        from repro.util.rand import derive_seed

        if self.rate <= 0.0:
            return []
        if self.rate >= 1.0:
            return list(range(self.rank_lo, self.rank_hi + 1))
        return [rank for rank in range(self.rank_lo, self.rank_hi + 1)
                if derive_seed(seed, f"event/{self.name}/{rank}") / 2**64
                < self.rate]


@dataclass(frozen=True)
class WorldEvolution:
    """Event-driven world evolution: daily churn + discrete events.

    Generalizes :class:`ChurnSchedule` — the same duck-typed surface
    (``seed`` / ``max_rank`` / ``generations(day)`` / ``day_events(day)``)
    the risk index's ``apply_delta`` / ``hot_swap`` consume, but the
    churn map at day ``d`` merges the background daily churn with every
    :class:`WorldEvent` whose day has arrived.  With ``daily_rate == 0``
    and no events it reproduces the static world exactly
    (``generations(d) == {}`` for all ``d``).
    """

    seed: int
    max_rank: int
    daily_rate: float = 0.0
    events: Tuple[WorldEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if not 0.0 <= self.daily_rate <= 1.0:
            raise ValueError("daily_rate must be in [0, 1]")
        for event in self.events:
            if event.rank_hi > self.max_rank:
                raise ValueError(
                    f"event {event.name!r} reaches rank {event.rank_hi} "
                    f"beyond max_rank {self.max_rank}")

    def _base(self) -> ChurnSchedule:
        return ChurnSchedule(self.seed, self.max_rank, self.daily_rate)

    def day_events(self, day: int) -> List[int]:
        """Ranks that churn on ``day`` — background plus events, merged."""
        churned = set(self._base().day_events(day)
                      if self.daily_rate > 0.0 else [])
        if day < 1:
            raise ValueError("days are 1-based")
        for event in self.events:
            if event.day == day:
                churned.update(event.churned_ranks(self.seed))
        return sorted(churned)

    def generations(self, days: int) -> Dict[int, int]:
        """Cumulative churn map after ``days`` days: rank -> generation.

        Order-independent: each event contributes its own generation
        bumps on top of the background churn, so the day-``N`` world is
        a pure function of ``(seed, events with day <= N)``.
        """
        counts: Dict[int, int] = dict(self._base().generations(days))
        for event in self.events:
            if event.day <= days:
                for rank in event.churned_ranks(self.seed):
                    counts[rank] = counts.get(rank, 0) + 1
        return counts


def world_range_digest(seed: int, start_rank: int, stop_rank: int,
                       churn_map: Dict[int, int]) -> str:
    """SHA-256 of a rank range's world state (its churn generations).

    Two worlds produce identical scan aggregates over ``[start, stop)``
    whenever this digest matches: every stream a rank consumes is a pure
    function of ``(seed, purpose, rank, generation)``, and the digest
    covers exactly the generations inside the range.
    """
    events = sorted((rank, generation)
                    for rank, generation in churn_map.items()
                    if start_rank <= rank < stop_rank)
    return json_digest({"seed": seed, "start": start_rank,
                        "stop": stop_rank, "events": events})


def _jsonable(value):
    """JSON-clean projection of config values (enum keys become strings)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item)
                for key, item in sorted(value.items(),
                                        key=lambda pair: str(pair[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _config_digest(config: Optional[InternetConfig]) -> str:
    """Fingerprint of the world config baked into a baseline."""
    return json_digest(_jsonable(asdict(config or InternetConfig())))


def _width_ranges(max_rank: int, width: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges of ``width`` ranks covering
    ``1..max_rank`` (the last range may be shorter)."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    if width < 1:
        raise ValueError("range_width must be >= 1")
    return [(start, min(start + width, max_rank + 1))
            for start in range(1, max_rank + 1, width)]


@dataclass(frozen=True)
class RangeRecord:
    """One persisted rank range: world digest + its sub-aggregates."""

    start_rank: int
    stop_rank: int
    world_digest: str
    aggregates: ScanAggregates

    def canonical_dict(self) -> Dict:
        return {
            "start": self.start_rank,
            "stop": self.stop_rank,
            "world_digest": self.world_digest,
            "digest": self.aggregates.digest(),
            "aggregates": self.aggregates.canonical_dict(),
        }

    @classmethod
    def from_canonical_dict(cls, payload: Dict) -> "RangeRecord":
        """Decode :meth:`canonical_dict`, checking the aggregates digest."""
        aggregates = ScanAggregates.from_canonical_dict(payload["aggregates"])
        if aggregates.digest() != payload["digest"]:
            raise ValueError(
                f"range [{payload['start']},{payload['stop']}) "
                f"aggregates do not match their recorded digest")
        return cls(start_rank=int(payload["start"]),
                   stop_rank=int(payload["stop"]),
                   world_digest=str(payload["world_digest"]),
                   aggregates=aggregates)


@dataclass(frozen=True)
class ScanBaseline:
    """A completed scan persisted as per-range sub-digests + aggregates.

    ``day`` is the churn day the baseline captures (0 = the pristine
    world); ``churn_rate`` rides along so a delta re-scan evolves the
    same world law the baseline was built against.  ``save``/``load`` go
    through the artifact envelope: atomic writes, and loading validates
    the format tag, the envelope digest over the whole file, every
    per-range digest, and the merged total digest — corruption is a loud
    :class:`~repro.util.errors.CheckpointCorruptError`, never a silently
    wrong count.
    """

    seed: int
    max_rank: int
    range_width: int
    day: int
    churn_rate: float
    config_digest: str
    ranges: Tuple[RangeRecord, ...]

    def total(self) -> ScanAggregates:
        """The merged aggregates over every range (exact addition)."""
        merged = ScanAggregates()
        for record in self.ranges:
            merged.merge(record.aggregates)
        return merged

    def total_digest(self) -> str:
        return self.total().digest()

    def canonical_dict(self) -> Dict:
        return {
            "format": SCAN_BASELINE_FORMAT,
            "seed": self.seed,
            "max_rank": self.max_rank,
            "range_width": self.range_width,
            "day": self.day,
            "churn_rate": self.churn_rate,
            "config_digest": self.config_digest,
            "total_digest": self.total_digest(),
            "ranges": [record.canonical_dict() for record in self.ranges],
        }

    def save(self, path: Union[str, Path]) -> None:
        """Atomically persist the baseline."""
        save_artifact(path, self.canonical_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScanBaseline":
        """Load and validate a baseline written by :meth:`save`.

        Unreadable JSON, a missing or wrong envelope digest, malformed
        ranges, or a per-range or total digest mismatch raises
        :class:`~repro.util.errors.CheckpointCorruptError`; a wrong or
        older format tag raises :class:`CheckpointMismatchError`.
        """
        def decode(data: Dict) -> "ScanBaseline":
            baseline = cls(
                seed=int(data["seed"]),
                max_rank=int(data["max_rank"]),
                range_width=int(data["range_width"]),
                day=int(data["day"]),
                churn_rate=float(data["churn_rate"]),
                config_digest=str(data["config_digest"]),
                ranges=tuple(RangeRecord.from_canonical_dict(payload)
                             for payload in data["ranges"]))
            if baseline.total_digest() != data["total_digest"]:
                raise ValueError("merged ranges do not match total_digest")
            return baseline

        return load_artifact(path, _ARTIFACT, decode)


@dataclass(frozen=True)
class DeltaScanResult:
    """One incremental re-scan: merged totals + the evolved baseline."""

    aggregates: ScanAggregates
    baseline: ScanBaseline
    ranges_reused: int
    ranges_rescanned: int


def build_scan_baseline(seed: int, max_rank: int, *,
                        range_width: int = _DEFAULT_RANGE_WIDTH,
                        day: int = 0, churn_rate: float = 0.004,
                        config: Optional[InternetConfig] = None,
                        jobs: Optional[int] = None,
                        perf: Optional[PerfRegistry] = None) -> ScanBaseline:
    """Full scan of the day-``day`` world, persisted range by range.

    A delta re-scan of an empty baseline: every range is scanned, so the
    merged total is byte-identical to ``run_sharded_scan`` /
    ``WorldModel.scan_ranks`` over the same world (the delta tests pin
    this), and every later re-scan pays only for churned ranges.
    """
    empty = ScanBaseline(seed=seed, max_rank=max_rank,
                         range_width=range_width, day=day,
                         churn_rate=churn_rate,
                         config_digest=_config_digest(config), ranges=())
    return delta_scan(empty, day, config=config, jobs=jobs,
                      perf=perf).baseline


def delta_scan(baseline: ScanBaseline, day: int, *,
               config: Optional[InternetConfig] = None,
               jobs: Optional[int] = None,
               perf: Optional[PerfRegistry] = None) -> DeltaScanResult:
    """Re-scan only the rank ranges that churned since ``baseline``.

    Evolves the baseline's world to churn day ``day``, compares each
    range's world digest against the persisted one, recomputes only the
    mismatches against the day-``day`` world, and merges with the
    retained ranges.  The merged aggregates are byte-identical to a
    from-scratch full scan of the day-``day`` world.
    """
    if _config_digest(config) != baseline.config_digest:
        raise CheckpointMismatchError(
            "baseline was built for a different world config")
    from repro.experiment.parallel import run_ranges, scan_range

    churn_map = ChurnSchedule(baseline.seed, baseline.max_rank,
                              baseline.churn_rate).generations(day)
    records: List[RangeRecord] = []
    run = run_ranges(
        baseline.seed, baseline.max_rank, scan_range,
        lambda *fields: records.append(RangeRecord(*fields)), jobs=jobs,
        config=config, churn=churn_map, range_width=baseline.range_width,
        reuse={(record.start_rank, record.stop_rank): record
               for record in baseline.ranges},
        perf=perf)
    run.raise_if_degraded()
    evolved = ScanBaseline(
        seed=baseline.seed, max_rank=baseline.max_rank,
        range_width=baseline.range_width, day=day,
        churn_rate=baseline.churn_rate,
        config_digest=baseline.config_digest, ranges=tuple(records))
    reused = sum(1 for outcome in run.outcomes
                 if outcome.status == "resumed")
    rescanned = len(run.outcomes) - reused
    if perf is not None:
        perf.count("delta.ranges_reused", reused)
        perf.count("delta.ranges_rescanned", rescanned)
    return DeltaScanResult(
        aggregates=evolved.total(), baseline=evolved,
        ranges_reused=reused, ranges_rescanned=rescanned)
