"""Incremental (delta) re-scans of the lazy typosquatting world.

A monitoring service re-scans the DL-1 typo space daily (the framing in
Spaulding et al.'s typosquatting-landscape survey); a full Alexa-1M
re-scan every day costs the whole universe even though registrations and
expirations touch a tiny fraction of ranks.  This module holds the laws
that make a re-scan cost proportional to what *changed*:

* :class:`ChurnSchedule` derives each day's registration/expiration
  churn deterministically from ``(seed, day)`` — rank ``r`` churns on
  day ``d`` iff its day-``d`` uniform falls below the daily rate.  A
  churned rank's *generation* increments; the
  :class:`~repro.ecosystem.world.WorldModel` re-keys that rank's
  registration/wild/probe streams by generation, so its DL-1 grid
  re-rolls (some ctypos expire, others register) while every untouched
  rank stays byte-identical to day 0.
* :func:`world_range_digest` stamps a rank range with the churn
  generations inside it, and :class:`RangeRecord` is one scanned range
  with that stamp — the encoding of the scan checkpoint
  (:class:`repro.experiment.parallel.ScanCheckpoint`).

A delta re-scan is a checkpointed scan re-run at a later churn day
(``repro scan --ranks N --checkpoint P``, then ``--days D`` on the same
``P``): the rank-range runner reuses every stored range whose world
digest still matches and scans the rest in the day-``D`` world, so the
merged aggregates are byte-identical to a full scan of that world.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.internet import InternetConfig
from repro.util.artifact import json_digest

__all__ = [
    "ChurnSchedule",
    "WorldEvent",
    "WorldEvolution",
    "RangeRecord",
    "world_range_digest",
]

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
    """Fingerprint of the world config a scan checkpoint was written in."""
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
