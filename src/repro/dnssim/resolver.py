"""The stub resolver used by every simulated client.

Implements the part of RFC 5321 section 5.1 the study depends on: to find
the mail exchanger for a domain, query MX; in the *absence* of MX records,
fall back to the domain's A record ("implicit MX").  The ecosystem scan
(paper Section 5.1) applies exactly this rule when deciding whether a
candidate typo domain can receive mail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dnssim.records import RecordType, normalize_name
from repro.dnssim.registry import DomainRegistry
from repro.dnssim.zone import Zone

__all__ = ["Resolver", "MailRoute", "ResolutionStatus"]


class ResolutionStatus(enum.Enum):
    """Outcome of resolving a domain's mail route."""
    OK = "ok"                      # mail hosts found
    NXDOMAIN = "nxdomain"          # no such domain registered
    NO_MAIL_HOST = "no_mail_host"  # registered, but neither MX nor A
    SERVFAIL = "servfail"          # transient server failure (retryable)
    TIMEOUT = "timeout"            # query timed out (retryable)

    @property
    def is_transient(self) -> bool:
        """Whether a real resolver would retry rather than treat as final."""
        return self in (ResolutionStatus.SERVFAIL, ResolutionStatus.TIMEOUT)


@dataclass(frozen=True)
class MailRoute:
    """Result of resolving where mail for a domain should be delivered."""

    domain: str
    status: ResolutionStatus
    mx_hosts: tuple = ()        # MX target hostnames, priority order
    addresses: tuple = ()       # resolved IPv4 addresses, in try-order
    used_implicit_mx: bool = False

    @property
    def can_receive_mail(self) -> bool:
        return self.status is ResolutionStatus.OK and bool(self.addresses)


#: entries the route memo holds before it is cleared wholesale
_ROUTE_MEMO_MAX = 1 << 12


class Resolver:
    """Resolves names against a :class:`DomainRegistry`.

    :meth:`mail_route` answers from a per-resolver memo.  An entry holds
    the registry generation and the version of every zone its answer
    read, and is used only while all of them are unchanged, so a memo
    hit always equals a fresh resolution.
    """

    def __init__(self, registry: DomainRegistry) -> None:
        self._registry = registry
        # name -> (registry generation, ((zone, version), ...), route)
        self._routes: Dict[str, Tuple[int, tuple, MailRoute]] = {}

    def resolve_a(self, name: str) -> List[str]:
        """IPv4 addresses for ``name`` (empty when none/NXDOMAIN)."""
        zone = self._registry.zone_for(name)
        if zone is None:
            return []
        return zone.a_addresses(name)

    def resolve_mx(self, name: str) -> List[str]:
        """MX target hosts for ``name``, best priority first."""
        zone = self._registry.zone_for(name)
        if zone is None:
            return []
        return zone.mx_hosts(name)

    def mail_route(self, domain: str) -> MailRoute:
        """Where to deliver mail addressed to ``user@domain``.

        Applies RFC 5321: MX first; if the domain exists but has no MX,
        treat its A record as an implicit MX of priority 0.
        """
        entry = self._routes.get(domain)
        if entry is not None and entry[0] == self._registry.generation \
                and all(zone.version == version
                        for zone, version in entry[1]):
            return entry[2]
        zones: List[Zone] = []
        route = self._resolve_route(normalize_name(domain), zones)
        if len(self._routes) >= _ROUTE_MEMO_MAX:
            self._routes.clear()
        self._routes[domain] = (
            self._registry.generation,
            tuple((zone, zone.version) for zone in zones), route)
        return route

    def _resolve_route(self, domain: str, zones: List[Zone]) -> MailRoute:
        """Resolve ``domain``'s route, appending every zone read to ``zones``."""
        zone = self._registry.zone_for(domain)
        if zone is None:
            return MailRoute(domain, ResolutionStatus.NXDOMAIN)
        zones.append(zone)

        mx_hosts = zone.mx_hosts(domain)
        if mx_hosts:
            addresses: List[str] = []
            for host in mx_hosts:
                host_zone = self._registry.zone_for(host)
                if host_zone is not None:
                    zones.append(host_zone)
                    addresses.extend(host_zone.a_addresses(host))
            if not addresses:
                return MailRoute(domain, ResolutionStatus.NO_MAIL_HOST,
                                 mx_hosts=tuple(mx_hosts))
            return MailRoute(domain, ResolutionStatus.OK,
                             mx_hosts=tuple(mx_hosts),
                             addresses=tuple(addresses))

        implicit = zone.a_addresses(domain)
        if implicit:
            return MailRoute(domain, ResolutionStatus.OK,
                             addresses=tuple(implicit),
                             used_implicit_mx=True)
        return MailRoute(domain, ResolutionStatus.NO_MAIL_HOST)
