"""The ``Scenario`` artifact: a seeded, persistable event timeline.

A :class:`Scenario` bundles a seed, a rank universe, background churn,
an ordered tuple of :class:`~repro.scenario.events.EcosystemEvent`s, and
the names of observation metrics to sample at event boundaries.  It is
the unit the CLI passes around (``study --scenario scenario.json``), so
it is saved and loaded through the shared artifact envelope
(:mod:`repro.util.artifact`): a ``repro-scenario@1`` tag, an SHA-256
self-digest and an atomic save, with the envelope's load taxonomy —
torn/corrupt bytes → :class:`~repro.util.errors.CheckpointCorruptError`
(exit 3), wrong format → :class:`~repro.util.errors.CheckpointMismatchError`
(exit 3), an unknown event kind → :class:`ConfigError` (exit 2, one
line).  Scenario files are also written by hand, so the digest is the
one envelope field that may be absent.

``world_evolution()`` compiles the world-touching events into a
:class:`~repro.ecosystem.delta.WorldEvolution`, the duck-typed churn
schedule the risk index and study runner evolve the world with.  An
empty scenario compiles to a churn-free evolution whose ``generations``
map is always ``{}`` — byte-identical to today's static world.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.ecosystem.delta import WorldEvent, WorldEvolution
from repro.scenario.events import EcosystemEvent
from repro.util.artifact import (
    ArtifactFormat,
    json_digest,
    load_artifact,
    save_artifact,
)
from repro.util.errors import ConfigError

__all__ = ["SCENARIO_FORMAT", "Scenario", "drift_drill_scenario"]

#: artifact format tag; bump when the on-disk schema changes
SCENARIO_FORMAT = "repro-scenario@1"

_ARTIFACT = ArtifactFormat(SCENARIO_FORMAT, "scenario", "re-export it",
                           digest_optional=True)


@dataclass(frozen=True)
class Scenario:
    """A seeded timeline of ecosystem events over ``1..max_rank``.

    ``metrics`` names the built-in observation metrics the driver
    samples at every event boundary (see
    :data:`~repro.scenario.driver.BUILTIN_METRICS`); callers can add
    their own callables at drive time.  ``churn_rate`` is the
    background daily churn applied between events (0 = quiescent).
    """

    seed: int
    name: str
    max_rank: int
    events: Tuple[EcosystemEvent, ...] = ()
    churn_rate: float = 0.0
    metrics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_rank < 1:
            raise ConfigError("scenario max_rank must be >= 1")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigError("scenario churn_rate must be in [0, 1]")
        for event in self.events:
            if event.rank_hi > self.max_rank:
                raise ConfigError(
                    f"event {event.name!r} reaches rank {event.rank_hi} "
                    f"beyond scenario max_rank {self.max_rank}")
        names = [event.name for event in self.events]
        if len(set(names)) != len(names):
            raise ConfigError("scenario event names must be unique")

    @property
    def is_empty(self) -> bool:
        """True when the scenario leaves the world fully static."""
        return not self.events and self.churn_rate == 0.0

    def events_on(self, day: int) -> Tuple[EcosystemEvent, ...]:
        """Events firing on ``day`` (1-based), in timeline order."""
        return tuple(event for event in self.events if event.day == day)

    def last_event_day(self) -> int:
        return max((event.day for event in self.events), default=0)

    def world_evolution(self) -> WorldEvolution:
        """Compile world-touching events into a churn schedule.

        Campaign events do not churn ranks (they shift the *message*
        distribution, not the registration landscape), so only
        churn bursts and defensive registrations become
        :class:`WorldEvent`s.
        """
        world_events = tuple(
            WorldEvent(name=event.name, day=event.day,
                       rank_lo=event.rank_lo, rank_hi=event.rank_hi,
                       rate=event.rate)
            for event in self.events if event.touches_world)
        return WorldEvolution(seed=self.seed, max_rank=self.max_rank,
                              daily_rate=self.churn_rate,
                              events=world_events)

    # -- persistence --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "format": SCENARIO_FORMAT,
            "seed": self.seed,
            "name": self.name,
            "max_rank": self.max_rank,
            "churn_rate": self.churn_rate,
            "metrics": list(self.metrics),
            "events": [event.to_dict() for event in self.events],
        }

    def digest(self) -> str:
        """SHA-256 over the canonical payload — the replay identity."""
        return json_digest(self.to_dict())

    def save(self, path: Union[str, Path]) -> None:
        """Atomically persist the scenario."""
        save_artifact(path, self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict) -> "Scenario":
        if not isinstance(payload, dict):
            raise ConfigError("scenario payload must be an object")
        try:
            events = tuple(EcosystemEvent.from_dict(entry)
                           for entry in payload.get("events", []))
            return cls(seed=int(payload["seed"]),
                       name=str(payload["name"]),
                       max_rank=int(payload["max_rank"]),
                       events=events,
                       churn_rate=float(payload.get("churn_rate", 0.0)),
                       metrics=tuple(str(metric) for metric
                                     in payload.get("metrics", [])))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(f"malformed scenario ({error})") from error

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        """Load and validate a scenario written by :meth:`save`.

        Unreadable bytes or a digest mismatch raise
        :class:`CheckpointCorruptError`; a wrong format tag raises
        :class:`CheckpointMismatchError`; a structurally sound file
        with an unknown event kind raises :class:`ConfigError` (the
        doctor's one-line exit-2 path).
        """
        return load_artifact(path, _ARTIFACT, cls.from_dict)


def drift_drill_scenario(seed: int, *, max_rank: int = 2000,
                         campaign_day: int = 2,
                         pool_size: int = 600,
                         evasion_bias: float = 0.9) -> Scenario:
    """The canonical end-to-end drift drill.

    Day 1 a churn burst re-rolls part of the tail and head targets
    defensively register; day ``campaign_day`` an adaptive squatter
    campaign re-weights its lures against the deployed detector hard
    enough to trip the drift monitor and schedule a shadow retrain.
    """
    events = (
        EcosystemEvent(kind="churn_burst", day=1, name="burst-tail",
                       rank_lo=max(1, max_rank // 2), rank_hi=max_rank,
                       rate=0.05),
        EcosystemEvent(kind="defensive_registration", day=1,
                       name="defend-head", rank_lo=1,
                       rank_hi=min(50, max_rank), rate=0.5),
        EcosystemEvent(kind="squatter_campaign", day=campaign_day,
                       name="adaptive-campaign", rank_lo=1,
                       rank_hi=max_rank, pool_size=pool_size,
                       evasion_bias=evasion_bias, retrain=True),
    )
    return Scenario(seed=seed, name="drift-drill", max_rank=max_rank,
                    events=events,
                    metrics=("registered_fraction", "defended_ranks",
                             "active_campaigns"))
