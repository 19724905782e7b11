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
* :class:`ScanBaseline` persists a completed scan as per-rank-range
  sub-aggregates, each stamped with the *world digest* of its range (a
  hash of the churn generations inside it) — saved and loaded through
  the same artifact envelope as the scan checkpoint.
* :func:`delta_scan` evolves the world by N days, recomputes only the
  ranges whose world digest changed, merges with the retained ranges,
  and returns both the merged aggregates and an updated baseline.  The
  delta tests pin ``delta_scan(world@t1, baseline@t0)`` byte-identical
  to a from-scratch full scan of the day-``t1`` world.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
            ranges = []
            for payload in data["ranges"]:
                aggregates = ScanAggregates.from_canonical_dict(
                    payload["aggregates"])
                if aggregates.digest() != payload["digest"]:
                    raise ValueError(
                        f"range [{payload['start']},{payload['stop']}) "
                        f"aggregates do not match their recorded digest")
                ranges.append(RangeRecord(
                    start_rank=int(payload["start"]),
                    stop_rank=int(payload["stop"]),
                    world_digest=str(payload["world_digest"]),
                    aggregates=aggregates))
            baseline = cls(
                seed=int(data["seed"]),
                max_rank=int(data["max_rank"]),
                range_width=int(data["range_width"]),
                day=int(data["day"]),
                churn_rate=float(data["churn_rate"]),
                config_digest=str(data["config_digest"]),
                ranges=tuple(ranges))
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


def _scan_ranges(seed: int, max_rank: int,
                 ranges: Sequence[Tuple[int, int]],
                 churn_map: Dict[int, int],
                 config: Optional[InternetConfig],
                 jobs: Optional[int],
                 perf: Optional[PerfRegistry]) -> List[ScanAggregates]:
    """Scan each ``[start, stop)`` range of the churned world.

    Serial path reuses one :class:`WorldModel` (streams and filler
    chunks stay warm across ranges); ``jobs > 1`` fans ranges out as
    shard tasks through the same pool machinery as the sharded scan.
    """
    from repro.ecosystem.world import WorldModel

    if jobs is not None and jobs > 1 and len(ranges) > 1:
        from repro.experiment.parallel import (
            ScanShardTask,
            fold_shard_perf,
            run_scan_shard,
        )
        from repro.util.pool import parallel_map

        tasks = [ScanShardTask(seed=seed, start_rank=start, stop_rank=stop,
                               max_rank=max_rank, config=config,
                               churn=tuple(sorted(churn_map.items())),
                               collect_perf=perf is not None)
                 for start, stop in ranges]
        shards = parallel_map(run_scan_shard, tasks, jobs=jobs, perf=perf)
        for shard in shards:
            fold_shard_perf(perf, shard.perf)
        return [shard.aggregates for shard in shards]
    world = WorldModel(seed, config, churn=churn_map or None)
    return [world.scan_ranks(start, stop, max_rank=max_rank, perf=perf)
            for start, stop in ranges]


def build_scan_baseline(seed: int, max_rank: int, *,
                        range_width: int = _DEFAULT_RANGE_WIDTH,
                        day: int = 0, churn_rate: float = 0.004,
                        config: Optional[InternetConfig] = None,
                        jobs: Optional[int] = None,
                        perf: Optional[PerfRegistry] = None) -> ScanBaseline:
    """Full scan of the day-``day`` world, persisted range by range.

    The merged total is byte-identical to ``run_sharded_scan`` /
    ``WorldModel.scan_ranks`` over the same world (the delta tests pin
    this), so building a baseline costs one full scan — after which
    every re-scan pays only for churned ranges.
    """
    schedule = ChurnSchedule(seed, max_rank, churn_rate)
    churn_map = schedule.generations(day)
    ranges = _width_ranges(max_rank, range_width)
    per_range = _scan_ranges(seed, max_rank, ranges, churn_map, config,
                             jobs, perf)
    records = tuple(
        RangeRecord(start_rank=start, stop_rank=stop,
                    world_digest=world_range_digest(seed, start, stop,
                                                    churn_map),
                    aggregates=aggregates)
        for (start, stop), aggregates in zip(ranges, per_range))
    return ScanBaseline(seed=seed, max_rank=max_rank,
                        range_width=range_width, day=day,
                        churn_rate=churn_rate,
                        config_digest=_config_digest(config),
                        ranges=records)


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
    schedule = ChurnSchedule(baseline.seed, baseline.max_rank,
                             baseline.churn_rate)
    churn_map = schedule.generations(day)

    stale: List[Tuple[int, int]] = []
    digests: Dict[Tuple[int, int], str] = {}
    for record in baseline.ranges:
        key = (record.start_rank, record.stop_rank)
        digests[key] = world_range_digest(baseline.seed, record.start_rank,
                                          record.stop_rank, churn_map)
        if digests[key] != record.world_digest:
            stale.append(key)

    rescanned = dict(zip(stale, _scan_ranges(
        baseline.seed, baseline.max_rank, stale, churn_map, config,
        jobs, perf)))
    records = tuple(
        RangeRecord(start_rank=record.start_rank,
                    stop_rank=record.stop_rank,
                    world_digest=digests[(record.start_rank,
                                          record.stop_rank)],
                    aggregates=rescanned.get(
                        (record.start_rank, record.stop_rank),
                        record.aggregates))
        for record in baseline.ranges)
    evolved = ScanBaseline(
        seed=baseline.seed, max_rank=baseline.max_rank,
        range_width=baseline.range_width, day=day,
        churn_rate=baseline.churn_rate,
        config_digest=baseline.config_digest, ranges=records)
    if perf is not None:
        perf.count("delta.ranges_reused", len(records) - len(stale))
        perf.count("delta.ranges_rescanned", len(stale))
    return DeltaScanResult(
        aggregates=evolved.total(), baseline=evolved,
        ranges_reused=len(records) - len(stale),
        ranges_rescanned=len(stale))
