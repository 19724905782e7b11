"""The wild email-typosquatting ecosystem: synthetic Internet, scans, clustering."""

from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.delta import (
    ChurnSchedule,
    RangeRecord,
    WorldEvent,
    WorldEvolution,
    world_range_digest,
)
from repro.ecosystem.clustering import (
    ConcentrationCurve,
    RegistrantCluster,
    cluster_registrants,
    concentration_curve,
    smallest_fraction_covering,
    top_share,
)
from repro.ecosystem.internet import (
    AlexaEntry,
    InternetConfig,
    OwnerType,
    SQUATTER_MX_POOL,
    SimulatedInternet,
    SmtpSupport,
    WildDomain,
    build_internet,
)
from repro.ecosystem.nameservers import (
    NameServerStats,
    analyze_nameservers,
    suspicious_nameservers,
)
from repro.ecosystem.scanner import EcosystemScan, EcosystemScanner, ScanResult
from repro.ecosystem.subdomain_typos import (
    SERVICE_PREFIXES,
    SubdomainTypo,
    SubdomainTypoReport,
    find_registered_subdomain_typos,
    generate_subdomain_typos,
)
from repro.ecosystem.world import DomainState, WorldModel
from repro.ecosystem.whois import (
    CLUSTER_FIELDS,
    PRIVACY_PROXIES,
    RegistrantPersona,
    WhoisDatabase,
    WhoisRecord,
    fields_match_count,
    make_registrant,
)

__all__ = [
    "build_internet",
    "SimulatedInternet",
    "InternetConfig",
    "AlexaEntry",
    "WildDomain",
    "OwnerType",
    "SmtpSupport",
    "SQUATTER_MX_POOL",
    "EcosystemScanner",
    "EcosystemScan",
    "ScanResult",
    "ScanAggregates",
    "WorldModel",
    "DomainState",
    "ChurnSchedule",
    "WorldEvent",
    "WorldEvolution",
    "RangeRecord",
    "world_range_digest",
    "cluster_registrants",
    "RegistrantCluster",
    "concentration_curve",
    "ConcentrationCurve",
    "top_share",
    "smallest_fraction_covering",
    "analyze_nameservers",
    "suspicious_nameservers",
    "NameServerStats",
    "WhoisDatabase",
    "WhoisRecord",
    "RegistrantPersona",
    "make_registrant",
    "fields_match_count",
    "CLUSTER_FIELDS",
    "PRIVACY_PROXIES",
    "SubdomainTypo",
    "SubdomainTypoReport",
    "SERVICE_PREFIXES",
    "generate_subdomain_typos",
    "find_registered_subdomain_typos",
]
