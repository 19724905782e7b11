"""Step/auto-run driver that walks a scenario's timeline.

The driver owns the *living-internet* loop: each :meth:`ScenarioDriver.step`
advances one day, applies that day's events (world churn is delegated to
the compiled :class:`~repro.ecosystem.delta.WorldEvolution`; campaign and
defensive bookkeeping is folded here), and samples every observation
metric at the event boundary.  ``run(days)`` is the auto-run loop.

Everything the driver accumulates is a pure fold over the event
timeline, so ``state_dict()`` / ``restore_state()`` round-trip through
the study checkpoint and a resumed run continues byte-identically —
``timeline_digest()`` pins the whole observed trajectory (day-by-day
samples, defended ranks, campaign activations) to ``(seed, scenario)``.

User-defined metrics are callables ``metric(driver, day) -> value``
registered at construction; built-ins are selected by name through the
scenario's ``metrics`` tuple:

* ``registered_fraction`` — fraction of the rank universe whose typo
  grid has re-rolled at least once (cumulative churn coverage),
* ``defended_ranks`` — how many ranks defensive registrations cover,
* ``active_campaigns`` — squatter campaigns launched so far.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.scenario.timeline import Scenario
from repro.util.artifact import json_digest
from repro.util.errors import ConfigError

__all__ = ["BUILTIN_METRICS", "ScenarioDriver"]


def _registered_fraction(driver: "ScenarioDriver", day: int) -> float:
    generations = driver.evolution.generations(day)
    return len(generations) / driver.scenario.max_rank


def _defended_ranks(driver: "ScenarioDriver", day: int) -> int:
    return len(driver.defended)


def _active_campaigns(driver: "ScenarioDriver", day: int) -> int:
    return len(driver.campaigns)


#: name -> callable for the scenario-selectable observation metrics
BUILTIN_METRICS: Dict[str, Callable[["ScenarioDriver", int], object]] = {
    "registered_fraction": _registered_fraction,
    "defended_ranks": _defended_ranks,
    "active_campaigns": _active_campaigns,
}


class ScenarioDriver:
    """Walks a :class:`Scenario` one day at a time.

    ``extra_metrics`` maps metric names to user callables sampled at
    every event boundary alongside the scenario's built-in selection;
    names must not collide with built-ins the scenario already selects.
    """

    def __init__(self, scenario: Scenario, *,
                 extra_metrics: Optional[
                     Dict[str, Callable[["ScenarioDriver", int],
                                        object]]] = None) -> None:
        self.scenario = scenario
        self.evolution = scenario.world_evolution()
        self._metrics: Dict[str, Callable] = {}
        for name in scenario.metrics:
            if name not in BUILTIN_METRICS:
                raise ConfigError(
                    f"unknown scenario metric {name!r}; built-ins: "
                    f"{', '.join(sorted(BUILTIN_METRICS))}")
            self._metrics[name] = BUILTIN_METRICS[name]
        for name, metric in (extra_metrics or {}).items():
            if name in self._metrics:
                raise ConfigError(f"metric {name!r} registered twice")
            self._metrics[name] = metric
        self.day = 0
        #: sorted defended ranks (defensive_registration coverage)
        self.defended: List[int] = []
        #: names of squatter campaigns launched so far, in firing order
        self.campaigns: List[str] = []
        #: one record per day stepped: events fired + metric samples
        self.samples: List[Dict] = []

    # -- the step / auto-run loop -------------------------------------

    def step(self) -> Dict:
        """Advance one day; apply its events; sample metrics.

        Returns the day's sample record (also appended to
        :attr:`samples`).  World churn needs no action here — the
        compiled evolution exposes it to whoever holds world state
        (the study runner hot-swaps its index off ``evolution``).
        """
        self.day += 1
        fired = self.scenario.events_on(self.day)
        for event in fired:
            if event.kind == "defensive_registration":
                covered = set(self.defended)
                covered.update(event.churned_ranks(self.scenario.seed))
                self.defended = sorted(covered)
            elif event.kind == "squatter_campaign":
                self.campaigns.append(event.name)
        sample = {
            "day": self.day,
            "events": [event.name for event in fired],
            "metrics": {name: metric(self, self.day)
                        for name, metric in sorted(self._metrics.items())},
        }
        self.samples.append(sample)
        return sample

    def run(self, days: int) -> List[Dict]:
        """Auto-run ``days`` steps; returns the new sample records."""
        if days < 0:
            raise ValueError("days must be non-negative")
        return [self.step() for _ in range(days)]

    # -- replay identity ----------------------------------------------

    def timeline_digest(self) -> str:
        """SHA-256 over the observed trajectory so far.

        Covers the scenario identity plus every day's sample — two
        drivers agree iff they walked the same (seed, scenario) to the
        same day and observed the same metrics.
        """
        return json_digest(
            {"scenario": self.scenario.digest(), "day": self.day,
             "defended": self.defended, "campaigns": self.campaigns,
             "samples": self.samples})

    # -- checkpoint plumbing ------------------------------------------

    def state_dict(self) -> Dict:
        """JSON-clean snapshot for the study checkpoint."""
        return {
            "day": self.day,
            "defended": list(self.defended),
            "campaigns": list(self.campaigns),
            "samples": [dict(sample) for sample in self.samples],
        }

    def restore_state(self, state: Dict) -> None:
        self.day = int(state["day"])
        self.defended = [int(rank) for rank in state["defended"]]
        self.campaigns = [str(name) for name in state["campaigns"]]
        self.samples = [dict(sample) for sample in state["samples"]]
