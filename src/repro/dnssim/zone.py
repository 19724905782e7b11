"""DNS zones with wildcard support.

A :class:`Zone` holds the records for one registered domain.  The study's
collection domains use exactly the paper's Table 1 layout: MX and A records
at the apex plus wildcard MX/A so mail sent to *any* subdomain of the typo
domain is captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnssim.records import RecordType, ResourceRecord, normalize_name

__all__ = ["Zone", "collection_zone"]


@dataclass
class Zone:
    """All resource records of one registered domain."""

    origin: str
    records: List[ResourceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.origin = normalize_name(self.origin)
        for record in self.records:
            self._check_in_zone(record)
        #: bumped by every :meth:`add`, so answers derived from the
        #: zone (the resolver's route memo) can tell they are stale
        self.version = 0

    def _check_in_zone(self, record: ResourceRecord) -> None:
        name = record.name[2:] if record.is_wildcard else record.name
        if name != self.origin and not name.endswith("." + self.origin):
            raise ValueError(
                f"record {record.name!r} is outside zone {self.origin!r}")

    def add(self, record: ResourceRecord) -> None:
        """Add a record; it must belong under this zone's origin."""
        self._check_in_zone(record)
        self.records.append(record)
        self.version += 1

    def lookup(self, name: str, rtype: RecordType) -> List[ResourceRecord]:
        """Records answering a query, exact matches shadowing wildcards."""
        query = normalize_name(name)
        exact = [r for r in self.records
                 if r.rtype is rtype and not r.is_wildcard and r.name == query]
        if exact:
            return exact
        return [r for r in self.records
                if r.rtype is rtype and r.is_wildcard and r.matches(query)]

    def mx_hosts(self, name: Optional[str] = None) -> List[str]:
        """MX target hosts for ``name`` (default: apex), priority order."""
        query = name if name is not None else self.origin
        mx = self.lookup(query, RecordType.MX)
        return [r.value for r in sorted(mx, key=lambda r: r.priority)]

    def a_addresses(self, name: Optional[str] = None) -> List[str]:
        """IPv4 addresses answering ``name`` (default: the zone apex)."""
        query = name if name is not None else self.origin
        return [r.value for r in self.lookup(query, RecordType.A)]

    def zone_file(self) -> str:
        """Render the zone in the paper's Table 1 column layout."""
        header = "FQDN\tTTL\tTYPE\tpriority\trecord"
        lines = [r.zone_file_line() for r in self.records]
        return "\n".join([header] + lines)

    def __len__(self) -> int:
        return len(self.records)


def collection_zone(domain: str, server_ip: str, ttl: int = 300) -> Zone:
    """Build the study's standard catch-all zone (paper Table 1).

    Wildcard and apex MX both point at the domain itself; wildcard and apex
    A records point at the domain's dedicated VPS address, so SMTP
    connections for any subdomain land on that one machine.
    """
    domain = normalize_name(domain)
    records = [
        ResourceRecord(f"*.{domain}", RecordType.MX, domain, ttl=ttl, priority=1),
        ResourceRecord(domain, RecordType.MX, domain, ttl=ttl, priority=1),
        ResourceRecord(f"*.{domain}", RecordType.A, server_ip, ttl=ttl),
        ResourceRecord(domain, RecordType.A, server_ip, ttl=ttl),
    ]
    return Zone(origin=domain, records=records)
