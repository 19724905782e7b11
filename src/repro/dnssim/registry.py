"""The simulated domain registry: who is registered, and with which zone.

This is the authoritative root of the simulated Internet.  Everything that
"scans the Internet" in the reproduction (the ecosystem crawler, the honey
campaign, the SMTP client's MX resolution) resolves names through a
:class:`DomainRegistry`, exactly as real tooling resolves through the DNS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.dnssim.records import normalize_name
from repro.dnssim.zone import Zone

__all__ = ["Registration", "DomainRegistry"]


@dataclass
class Registration:
    """A registered domain: its zone plus registration metadata.

    ``nameserver`` is the operator of the domain's authoritative DNS (used
    by the suspicious-name-server analysis); ``registrant_id`` keys into
    the WHOIS database.
    """

    domain: str
    zone: Zone
    nameserver: str = "ns.default-dns.com"
    registrant_id: Optional[str] = None
    registered_on_day: int = 0

    def __post_init__(self) -> None:
        self.domain = normalize_name(self.domain)
        if self.zone.origin != self.domain:
            raise ValueError(
                f"zone origin {self.zone.origin!r} != domain {self.domain!r}")


class DomainRegistry:
    """Registrations indexed by domain, with suffix search.

    The registry deliberately exposes a zone-file-like view
    (:meth:`domains_in_tld`) because the paper's ecosystem study walks the
    ``.com`` zone file to find candidate typo domains.
    """

    def __init__(self) -> None:
        self._registrations: Dict[str, Registration] = {}
        #: bumped by every register/deregister, so answers derived from
        #: the registry (the resolver's route memo) can tell they are stale
        self.generation = 0

    def register(self, registration: Registration) -> None:
        """Register a domain; double registration is an error."""
        domain = registration.domain
        if domain in self._registrations:
            raise ValueError(f"domain {domain!r} already registered")
        self._registrations[domain] = registration
        self.generation += 1

    def deregister(self, domain: str) -> None:
        """Remove a registration; unknown domains raise KeyError."""
        domain = normalize_name(domain)
        if domain not in self._registrations:
            raise KeyError(domain)
        del self._registrations[domain]
        self.generation += 1

    def is_registered(self, domain: str) -> bool:
        """Whether ``domain`` is currently registered."""
        return normalize_name(domain) in self._registrations

    def get(self, domain: str) -> Optional[Registration]:
        """The registration of ``domain``, or None."""
        return self._registrations.get(normalize_name(domain))

    def zone_for(self, name: str) -> Optional[Zone]:
        """The zone authoritative for ``name``: longest registered suffix.

        ``mail.example.com`` is served by the zone of ``example.com`` when
        only the latter is registered.
        """
        name = normalize_name(name)
        labels = name.split(".")
        for start in range(len(labels) - 1):
            candidate = ".".join(labels[start:])
            registration = self._registrations.get(candidate)
            if registration is not None:
                return registration.zone
        return None

    def domains_in_tld(self, tld: str) -> List[str]:
        """All registered domains under ``tld`` (the zone-file view)."""
        suffix = "." + normalize_name(tld)
        return sorted(d for d in self._registrations if d.endswith(suffix))

    def all_domains(self) -> List[str]:
        """Every registered domain, sorted."""
        return sorted(self._registrations)

    def __len__(self) -> int:
        return len(self._registrations)

    def __iter__(self) -> Iterator[Registration]:
        return iter(self._registrations.values())
