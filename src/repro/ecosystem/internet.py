"""The simulated Internet the ecosystem study scans (paper Section 5).

Builds a world with the generative processes behind the paper's findings,
so the *scans* in :mod:`repro.ecosystem.scanner` measure rather than
assume them:

* an Alexa-like ranked list of popular target domains (Zipf popularity),
  including the five projection targets and the study's email targets;
* candidate typo domains ("ctypos") registered in the wild, with
  registration probability increasing with target popularity and typo
  quality (squatters pick the good typos first);
* a heavily concentrated ownership structure: a handful of bulk
  registrants owning thousands of domains (top-14 own ~20% in the paper),
  a long tail of small squatters, defensive registrations by the targets
  themselves, and legitimate look-alike businesses;
* mail infrastructure concentration: bulk squatters park their domains'
  MX on a few privately-registered mail hosts (Table 6's ``b-io.co`` et
  al. serve 95% of accepting domains);
* "cesspool" name servers serving a far higher ratio of typo domains
  than normal DNS operators;
* an SMTP support mix matching Table 4 (many domains cannot receive mail
  at all, a third are unscannable, STARTTLS mostly works where mail is
  supported).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.targets import EMAIL_TARGETS
from repro.core.typogen import TypoCandidate, split_domain
from repro.dnssim import (
    DomainRegistry,
    RecordType,
    Registration,
    ResourceRecord,
    Zone,
)
from repro.ecosystem.whois import (
    PRIVACY_PROXIES,
    RegistrantPersona,
    WhoisDatabase,
    WhoisRecord,
)
from repro.smtpsim import HostBehavior, Network, SmtpServer, domain_policy
from repro.smtpsim.protocol import accept_all_policy
from repro.util.rand import SeededRng, derive_seed

__all__ = [
    "SmtpSupport",
    "OwnerType",
    "WildDomain",
    "InternetConfig",
    "SimulatedInternet",
    "build_internet",
    "SQUATTER_MX_POOL",
]


class SmtpSupport(enum.Enum):
    """Ground-truth SMTP capability of a wild domain (Table 4 categories)."""

    NO_DNS = "no_mx_or_a"              # registered, no MX and no A record
    NO_INFO = "no_info"                # records exist but scans get nothing
    NO_EMAIL = "no_email_support"      # host up, SMTP ports closed
    PLAIN = "smtp_no_starttls"         # SMTP works, STARTTLS not offered
    STARTTLS_ERRORS = "starttls_with_errors"
    STARTTLS_OK = "starttls_ok"

    @property
    def can_accept_mail(self) -> bool:
        return self in (SmtpSupport.PLAIN, SmtpSupport.STARTTLS_ERRORS,
                        SmtpSupport.STARTTLS_OK)


class OwnerType(enum.Enum):
    """Who registered a wild candidate typo domain, and why."""
    BULK_SQUATTER = "bulk_squatter"
    MEDIUM_SQUATTER = "medium_squatter"
    SMALL_SQUATTER = "small_squatter"
    DEFENSIVE = "defensive"        # registered by the target's owner
    LEGITIMATE = "legitimate"      # honest business at DL-1 by accident


#: The paper's Table 6 mail hosts with their share of accepting domains
#: and whether their STARTTLS implementation is broken (supplying the
#: "Supp. STARTTLS with errors" slice of Table 4 for bulk-parked domains).
SQUATTER_MX_POOL: Sequence[Tuple[str, float, bool]] = (
    ("b-io.co", 43.6, False),
    ("h-email.net", 18.5, False),
    ("mb5p.com", 10.1, False),
    ("m1bp.com", 8.7, False),
    ("mb1p.com", 7.7, True),
    ("hostedmxserver.com", 3.1, False),
    ("hope-mail.com", 2.4, True),
    ("m2bp.com", 1.3, False),
)

_CESSPOOL_NAMESERVERS = tuple(
    f"ns{i}.cheap-dns-{i}.example" for i in range(1, 9))
_NORMAL_NAMESERVERS = tuple(
    f"ns.hosting-{i:02d}.example" for i in range(1, 41))


@dataclass(frozen=True)
class AlexaEntry:
    """One row of the simulated Alexa ranking."""

    domain: str
    rank: int
    monthly_visitors: float


@dataclass
class WildDomain:
    """Ground truth about one registered ctypo in the wild."""

    domain: str
    target: str
    candidate: TypoCandidate
    owner_id: str
    owner_type: OwnerType
    support: SmtpSupport
    mx_domain: Optional[str]      # None => implicit MX via A record
    nameserver: str
    private_whois: bool
    ip: Optional[str]

    @property
    def is_squatting(self) -> bool:
        return self.owner_type in (OwnerType.BULK_SQUATTER,
                                   OwnerType.MEDIUM_SQUATTER,
                                   OwnerType.SMALL_SQUATTER)


@dataclass(frozen=True)
class InternetConfig:
    """Size and mixture knobs for the synthetic Internet."""

    num_filler_targets: int = 250
    #: registration probability for a rank-1 target's best typo; decays
    #: with rank and with typo quality.
    peak_registration_probability: float = 0.65
    rank_decay: float = 0.45
    bulk_registrant_count: int = 14
    medium_registrant_count: int = 50
    #: ownership mixture over registered squatter ctypos
    bulk_share: float = 0.18
    medium_share: float = 0.32
    defensive_fraction: float = 0.05
    legitimate_fraction: float = 0.06
    #: WHOIS privacy rates per owner class
    bulk_privacy_rate: float = 0.80
    small_privacy_rate: float = 0.35
    #: SMTP support mixtures (must sum to 1) per infrastructure class.
    #: Bulk squatters mostly park on the shared MX pool (whether STARTTLS
    #: works there is a property of the pool host, not drawn here).
    squatter_support_mix: Mapping[SmtpSupport, float] = field(
        default_factory=lambda: {
            SmtpSupport.NO_DNS: 0.06,
            SmtpSupport.NO_INFO: 0.24,
            SmtpSupport.NO_EMAIL: 0.03,
            SmtpSupport.STARTTLS_OK: 0.67,
        })
    longtail_support_mix: Mapping[SmtpSupport, float] = field(
        default_factory=lambda: {
            SmtpSupport.NO_DNS: 0.30,
            SmtpSupport.NO_INFO: 0.42,
            SmtpSupport.NO_EMAIL: 0.12,
            SmtpSupport.PLAIN: 0.002,
            SmtpSupport.STARTTLS_ERRORS: 0.098,
            SmtpSupport.STARTTLS_OK: 0.06,
        })
    #: how often a small squatter uses a cesspool DNS operator (bulk
    #: squatters always do)
    small_cesspool_rate: float = 0.12
    #: benign .com domains served per name-server operator — kept as
    #: aggregate counts (the paper read these off the .com zone file;
    #: materializing hundreds of thousands of zones would add nothing)
    benign_per_normal_nameserver: int = 8000
    benign_per_cesspool_nameserver: int = 200
    #: connection flakiness of small-squatter infrastructure (Table 5's
    #: huge timeout counts)
    longtail_timeout_probability: float = 0.72
    longtail_network_error_probability: float = 0.25
    #: how longtail mail servers treat unknown recipients: catch-all,
    #: per-domain, or bounce-everything (no catch-all configured)
    longtail_catch_all_rate: float = 0.30
    longtail_reject_all_rate: float = 0.25


#: Domain-resale inventory: registered to sell, not to collect mail.
_RESELLER_SUPPORT_MIX: Mapping[SmtpSupport, float] = {
    SmtpSupport.NO_DNS: 0.25,
    SmtpSupport.NO_INFO: 0.55,
    SmtpSupport.NO_EMAIL: 0.10,
    SmtpSupport.STARTTLS_OK: 0.10,
}

_PRONOUNCEABLE_ONSETS = ("br", "cl", "dr", "fl", "gr", "pl", "st", "tr",
                         "m", "n", "p", "r", "s", "t", "v", "z")
_PRONOUNCEABLE_VOWELS = ("a", "e", "i", "o", "u")


class SimulatedInternet:
    """The assembled world: registry, network, WHOIS, and ground truth."""

    def __init__(self, registry: DomainRegistry, network: Network,
                 whois: WhoisDatabase, alexa: List[AlexaEntry],
                 wild_domains: List[WildDomain],
                 registrants: Dict[str, RegistrantPersona],
                 nameserver_benign_counts: Optional[Dict[str, int]] = None) -> None:
        self.registry = registry
        self.network = network
        self.whois = whois
        self.alexa = alexa
        self.wild_domains = wild_domains
        self.registrants = registrants
        #: benign domains per name-server operator, kept as aggregate
        #: counts (stands in for the rest of the .com zone file)
        self.nameserver_benign_counts = nameserver_benign_counts or {}
        #: missing-dot registrations (smtpgmail.com-style, paper §5.2),
        #: populated by the builder
        self.subdomain_typo_domains: List[str] = []
        self._by_domain = {w.domain: w for w in wild_domains}
        # lookup indexes built once: rank by domain, domains by owner, and
        # the squatter subset — callers hit these in O(ctypos)-sized loops
        self._rank_by_domain = {e.domain: e.rank for e in alexa}
        self._by_owner: Dict[str, List[WildDomain]] = {}
        for w in wild_domains:
            self._by_owner.setdefault(w.owner_id, []).append(w)
        self._squatting = [w for w in wild_domains if w.is_squatting]

    def ground_truth(self, domain: str) -> Optional[WildDomain]:
        """The generative truth about one wild ctypo, or None."""
        return self._by_domain.get(domain.lower())

    def alexa_rank(self, domain: str) -> Optional[int]:
        """The simulated Alexa rank of a target domain, or None."""
        return self._rank_by_domain.get(domain)

    def squatting_domains(self) -> List[WildDomain]:
        """The ctypos owned by squatters (any size class)."""
        return list(self._squatting)

    def domains_of_owner(self, owner_id: str) -> List[WildDomain]:
        """All wild domains registered to one owner."""
        return list(self._by_owner.get(owner_id, ()))


def build_internet(rng: SeededRng,
                   config: Optional[InternetConfig] = None) -> SimulatedInternet:
    """Assemble the synthetic Internet.

    Since the paper-scale scan landed, the wild-domain law lives in
    :class:`repro.ecosystem.world.WorldModel`; this builder *materializes*
    that law — per-rank derived states become registry zones, SMTP
    servers, and WHOIS records — so a lazily scanned world and an eagerly
    built one agree on ground truth.  When one candidate string registers
    under several ranks, the lowest rank wins (the registry enforces it).
    """
    from repro.ecosystem.world import WorldModel

    config = config or InternetConfig()
    world = WorldModel(rng.seed, config)
    registry = DomainRegistry()
    network = Network(rng.child("network"))
    whois = WhoisDatabase()

    num_targets = len(EMAIL_TARGETS) + config.num_filler_targets
    alexa = world.alexa_entries(num_targets)
    _register_targets(rng, registry, network, whois, alexa)

    registrants: Dict[str, RegistrantPersona] = {}
    # The top three bulk registrants are public domain-resale businesses
    # (the paper: "companies whose business appears to be holding domain
    # names for sale ... not evidence of active malice"); the rest are
    # privately-registered collectors running the shared MX pool.
    bulk: List[Tuple[RegistrantPersona, str]] = []
    for i in range(config.bulk_registrant_count):
        registrant_id = f"bulk-{i:02d}"
        persona = world.persona(registrant_id)
        registrants[registrant_id] = persona
        bulk.append((persona, "reseller" if i < 3 else "collector"))
    for i in range(config.medium_registrant_count):
        registrant_id = f"medium-{i:03d}"
        registrants[registrant_id] = world.persona(registrant_id)

    allocator = _IpAllocator("203.0")
    mx_hosts = _materialize_squatter_mx(rng, registry, network, whois,
                                        registrants, allocator)
    _materialize_dark_mx(rng, registry, network, allocator)

    wild: List[WildDomain] = []
    for rank in range(1, num_targets + 1):
        for state in world.rank_states(rank):
            if registry.is_registered(state.domain):
                continue
            wild.append(_materialize_state(world, state, config, registry,
                                           network, whois, registrants,
                                           allocator))

    subdomain_typos = _register_subdomain_typos(
        rng.child("subdomain-typos"), config, registry, whois, alexa, bulk,
        mx_hosts)

    benign_counts: Dict[str, int] = {}
    for ns in _NORMAL_NAMESERVERS:
        benign_counts[ns] = config.benign_per_normal_nameserver
    for ns in _CESSPOOL_NAMESERVERS:
        benign_counts[ns] = config.benign_per_cesspool_nameserver

    internet = SimulatedInternet(registry, network, whois, alexa, wild,
                                 registrants,
                                 nameserver_benign_counts=benign_counts)
    internet.subdomain_typo_domains = subdomain_typos
    return internet


def _register_subdomain_typos(rng: SeededRng, config: InternetConfig,
                              registry: DomainRegistry,
                              whois: WhoisDatabase,
                              alexa: List[AlexaEntry],
                              bulk: List[Tuple[RegistrantPersona, str]],
                              mx_hosts: List[Tuple[str, float, bool]]
                              ) -> List[str]:
    """Missing-dot registrations (paper §5.2: smtpgmail.com & friends).

    Squatters register ``{prefix}{label}.{tld}`` variants of service host
    names for the most popular targets; nearly all are privately
    registered — the paper's tell that these are not defensive.
    """
    from repro.ecosystem.subdomain_typos import generate_subdomain_typos

    registered: List[str] = []
    top_targets = [entry.domain for entry in alexa[:30]]
    for candidate in generate_subdomain_typos(top_targets):
        rank = next(e.rank for e in alexa if e.domain == candidate.target)
        base_p = {"smtp": 0.5, "mail": 0.7, "mx": 0.25}.get(
            candidate.prefix, 0.15)
        if not rng.bernoulli(base_p / (rank ** 0.5)):
            continue
        if registry.is_registered(candidate.domain):
            continue
        owner, _ = rng.choice(bulk)
        zone = Zone(origin=candidate.domain)
        hosts = [h for h, _, _ in mx_hosts]
        weights = [w for _, w, _ in mx_hosts]
        zone.add(ResourceRecord(candidate.domain, RecordType.MX,
                                hosts[rng.weighted_index(weights)],
                                priority=10))
        registry.register(Registration(
            domain=candidate.domain, zone=zone,
            nameserver=rng.choice(_CESSPOOL_NAMESERVERS),
            registrant_id=owner.registrant_id))
        whois.add(WhoisRecord(domain=candidate.domain,
                              privacy_proxy=rng.choice(PRIVACY_PROXIES)))
        registered.append(candidate.domain)
    return registered


# -- builder internals -------------------------------------------------------


class _IpAllocator:
    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._next = 1

    def allocate(self) -> str:
        index = self._next
        self._next += 1
        high, low = divmod(index, 250)
        return f"{self._prefix}.{high % 250}.{low + 1}"


def _register_targets(rng: SeededRng, registry: DomainRegistry,
                      network: Network, whois: WhoisDatabase,
                      alexa: List[AlexaEntry]) -> None:
    allocator = _IpAllocator("198.18")
    for entry in alexa:
        ip = allocator.allocate()
        zone = Zone(origin=entry.domain)
        mx_host = f"mx.{entry.domain}"
        zone.add(ResourceRecord(entry.domain, RecordType.MX, mx_host,
                                priority=10))
        zone.add(ResourceRecord(mx_host, RecordType.A, ip))
        zone.add(ResourceRecord(entry.domain, RecordType.A, ip))
        registry.register(Registration(
            domain=entry.domain, zone=zone,
            nameserver=f"ns.{entry.domain}",
            registrant_id=f"owner-{entry.domain}"))
        server = SmtpServer(hostname=mx_host, ip=ip,
                            rcpt_policy=domain_policy([entry.domain]))
        network.attach(ip, server)
        whois.add(WhoisRecord(
            domain=entry.domain,
            registrant_name=f"{split_domain(entry.domain)[0].title()} Inc.",
            organization=f"{split_domain(entry.domain)[0].title()} Inc.",
            email=f"hostmaster@{entry.domain}",
            phone="+1.8005550100", fax="+1.8005550101",
            mailing_address="1 Corporate Way"))


def _materialize_squatter_mx(rng: SeededRng, registry: DomainRegistry,
                             network: Network, whois: WhoisDatabase,
                             registrants: Dict[str, RegistrantPersona],
                             allocator: _IpAllocator) -> List[Tuple[str, float, str]]:
    """Register the shared squatter mail hosts; returns (host, weight, ip)."""
    out = []
    for host, weight, starttls_broken in SQUATTER_MX_POOL:
        ip = allocator.allocate()
        zone = Zone(origin=host)
        zone.add(ResourceRecord(host, RecordType.A, ip))
        registry.register(Registration(domain=host, zone=zone,
                                       nameserver=_CESSPOOL_NAMESERVERS[0],
                                       registrant_id=f"mxop-{host}"))
        whois.add(WhoisRecord(domain=host,
                              privacy_proxy=rng.choice(PRIVACY_PROXIES)))
        server = SmtpServer(hostname=host, ip=ip,
                            rcpt_policy=accept_all_policy,
                            starttls_broken=starttls_broken)
        network.attach(ip, server,
                       behavior=HostBehavior(timeout_probability=0.03,
                                             network_error_probability=0.02))
        out.append((host, weight, starttls_broken))
    return out


def _materialize_dark_mx(rng: SeededRng, registry: DomainRegistry,
                         network: Network,
                         allocator: _IpAllocator) -> Dict[SmtpSupport, List[str]]:
    """Parked mail hosts whose scans go nowhere.

    ``NO_INFO`` hosts have an address that never answers (every probe
    times out); ``NO_EMAIL`` hosts are up but have no SMTP listener, so
    connections are refused.  Bulk squatters park non-mail domains here.
    """
    hosts: Dict[SmtpSupport, List[str]] = {
        SmtpSupport.NO_INFO: [], SmtpSupport.NO_EMAIL: []}
    for index in range(3):
        host = f"parked-mx-{index}.example"
        ip = allocator.allocate()
        zone = Zone(origin=host)
        zone.add(ResourceRecord(host, RecordType.A, ip))
        registry.register(Registration(domain=host, zone=zone,
                                       registrant_id=f"mxop-{host}"))
        network.set_behavior(ip, HostBehavior(timeout_probability=1.0))
        hosts[SmtpSupport.NO_INFO].append(host)
    for index in range(3):
        host = f"web-mx-{index}.example"
        ip = allocator.allocate()
        zone = Zone(origin=host)
        zone.add(ResourceRecord(host, RecordType.A, ip))
        registry.register(Registration(domain=host, zone=zone,
                                       registrant_id=f"mxop-{host}"))
        # no server attached: the port is closed, connections refused
        hosts[SmtpSupport.NO_EMAIL].append(host)
    return hosts


def _reject_unknown_policy(recipient: str) -> Tuple[bool, str]:
    """A mail server without catch-all: every probe recipient is unknown."""
    return False, "user unknown"


_LONGTAIL_POLICIES = {
    "reject_unknown": lambda domain: _reject_unknown_policy,
    "catch_all": lambda domain: accept_all_policy,
    "domain": lambda domain: domain_policy([domain]),
}


def _materialize_state(world, state, config: InternetConfig,
                       registry: DomainRegistry, network: Network,
                       whois: WhoisDatabase,
                       registrants: Dict[str, RegistrantPersona],
                       allocator: _IpAllocator) -> WildDomain:
    """Turn one derived :class:`~repro.ecosystem.world.DomainState` into
    registry zones, SMTP hosts, and a WHOIS record."""
    domain = state.domain
    zone = Zone(origin=domain)
    ip: Optional[str] = None

    if state.owner_type is OwnerType.DEFENSIVE:
        zone.add(ResourceRecord(domain, RecordType.MX, state.mx_domain,
                                priority=10))
        registry.register(Registration(domain=domain, zone=zone,
                                       nameserver=state.nameserver,
                                       registrant_id=state.owner_id))
        target_whois = whois.lookup(state.target)
        whois.add(WhoisRecord(
            domain=domain,
            registrant_name=target_whois.registrant_name,
            organization=target_whois.organization,
            email=target_whois.email,
            phone=target_whois.phone, fax=target_whois.fax,
            mailing_address=target_whois.mailing_address))
        return _wild_from_state(state, ip)

    owner = registrants.get(state.owner_id)
    if owner is None:
        owner = world.persona(state.owner_id)
        registrants[state.owner_id] = owner

    if state.mx_domain is not None:
        zone.add(ResourceRecord(domain, RecordType.MX, state.mx_domain,
                                priority=10))
    if state.has_address:
        ip = allocator.allocate()
        zone.add(ResourceRecord(domain, RecordType.A, ip))
    registry.register(Registration(domain=domain, zone=zone,
                                   nameserver=state.nameserver,
                                   registrant_id=state.owner_id))

    if state.private_whois:
        whois.add(WhoisRecord(domain=domain,
                              privacy_proxy=state.privacy_proxy))
    elif state.whois_fields_filled >= 6:
        whois.add(owner.record_for(domain))
    else:
        whois.add(owner.record_for(
            domain, fields_filled=state.whois_fields_filled,
            rng=SeededRng(derive_seed(world.seed, f"whois-{domain}"))))

    if ip is not None:
        if state.owner_type is OwnerType.LEGITIMATE:
            # an honest business has real mailboxes: probes to made-up
            # users usually bounce, though some run catch-alls (the paper
            # found 8 legitimate look-alikes reading its honey mail)
            policy = _LONGTAIL_POLICIES[state.longtail_policy](domain)
            server = SmtpServer(hostname=domain, ip=ip, rcpt_policy=policy)
            network.attach(ip, server, behavior=HostBehavior(
                timeout_probability=0.05, network_error_probability=0.03))
        elif state.support is SmtpSupport.NO_INFO:
            # a listener might exist but scans never get through
            network.set_behavior(ip, HostBehavior(
                timeout_probability=0.97, network_error_probability=0.03))
        elif state.longtail_policy is not None:
            policy = _LONGTAIL_POLICIES[state.longtail_policy](domain)
            server = SmtpServer(
                hostname=domain, ip=ip, rcpt_policy=policy,
                supports_starttls=state.support is not SmtpSupport.PLAIN,
                starttls_broken=state.support is SmtpSupport.STARTTLS_ERRORS)
            network.attach(ip, server, behavior=HostBehavior(
                timeout_probability=config.longtail_timeout_probability,
                network_error_probability=(
                    config.longtail_network_error_probability)))
        # NO_EMAIL: the host exists but no SMTP listener is attached

    return _wild_from_state(state, ip)


def _wild_from_state(state, ip: Optional[str]) -> WildDomain:
    return WildDomain(domain=state.domain, target=state.target,
                      candidate=state.candidate(), owner_id=state.owner_id,
                      owner_type=state.owner_type, support=state.support,
                      mx_domain=state.mx_domain, nameserver=state.nameserver,
                      private_whois=state.private_whois, ip=ip)
