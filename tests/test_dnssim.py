"""Tests for the simulated DNS substrate."""

import pytest

from repro.core import build_study_corpus
from repro.dnssim import resolver as resolver_module
from repro.dnssim import (
    DomainRegistry,
    MailRoute,
    RecordType,
    Registration,
    ResolutionStatus,
    Resolver,
    ResourceRecord,
    Zone,
    collection_zone,
    is_valid_ipv4,
    normalize_name,
)
from repro.faultsim.inject import FaultyResolver, StudyFaultInjector
from repro.faultsim.plan import DnsFaultSpell, FaultPlan
from repro.infra import provision_study, surrender_domain
from repro.smtpsim import Network
from repro.util import SeededRng


class TestRecords:
    def test_normalize(self):
        assert normalize_name("ExAmple.COM.") == "example.com"
        assert normalize_name("  a.b ") == "a.b"

    def test_ipv4_validation(self):
        assert is_valid_ipv4("1.2.3.4")
        assert is_valid_ipv4("255.255.255.255")
        assert not is_valid_ipv4("256.1.1.1")
        assert not is_valid_ipv4("1.2.3")
        assert not is_valid_ipv4("a.b.c.d")

    def test_a_record_requires_valid_ip(self):
        with pytest.raises(ValueError):
            ResourceRecord("x.com", RecordType.A, "not-an-ip")

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("x.com", RecordType.MX, "mail.x.com", ttl=-1)

    def test_wildcard_detection(self):
        record = ResourceRecord("*.exampel.com", RecordType.MX, "exampel.com")
        assert record.is_wildcard

    def test_wildcard_matches_subdomain_only(self):
        record = ResourceRecord("*.exampel.com", RecordType.MX, "exampel.com")
        assert record.matches("mail.exampel.com")
        assert record.matches("a.b.exampel.com")
        assert not record.matches("exampel.com")
        assert not record.matches("other.com")

    def test_exact_match(self):
        record = ResourceRecord("exampel.com", RecordType.MX, "exampel.com")
        assert record.matches("exampel.com")
        assert record.matches("EXAMPEL.COM.")
        assert not record.matches("mail.exampel.com")

    def test_zone_file_line_mx(self):
        record = ResourceRecord("*.exampel.com", RecordType.MX, "exampel.com",
                                ttl=300, priority=1)
        line = record.zone_file_line()
        assert "*.exampel.com." in line
        assert "MX" in line and "\t1\t" in line

    def test_zone_file_line_a_has_na_priority(self):
        record = ResourceRecord("exampel.com", RecordType.A, "1.1.1.1")
        assert "\tNA\t" in record.zone_file_line()


class TestZone:
    def test_collection_zone_matches_paper_table1(self):
        zone = collection_zone("exampel.com", "1.1.1.1")
        assert len(zone) == 4
        assert zone.mx_hosts() == ["exampel.com"]
        assert zone.mx_hosts("anything.exampel.com") == ["exampel.com"]
        assert zone.a_addresses() == ["1.1.1.1"]
        assert zone.a_addresses("random.sub.exampel.com") == ["1.1.1.1"]

    def test_zone_file_rendering(self):
        text = collection_zone("exampel.com", "1.1.1.1").zone_file()
        assert text.splitlines()[0] == "FQDN\tTTL\tTYPE\tpriority\trecord"
        assert len(text.splitlines()) == 5

    def test_out_of_zone_record_rejected(self):
        zone = Zone(origin="a.com")
        with pytest.raises(ValueError):
            zone.add(ResourceRecord("b.com", RecordType.A, "1.1.1.1"))

    def test_exact_shadows_wildcard(self):
        zone = collection_zone("exampel.com", "1.1.1.1")
        zone.add(ResourceRecord("special.exampel.com", RecordType.A, "2.2.2.2"))
        assert zone.a_addresses("special.exampel.com") == ["2.2.2.2"]
        assert zone.a_addresses("other.exampel.com") == ["1.1.1.1"]

    def test_mx_priority_ordering(self):
        zone = Zone(origin="x.com")
        zone.add(ResourceRecord("x.com", RecordType.MX, "backup.x.com", priority=20))
        zone.add(ResourceRecord("x.com", RecordType.MX, "primary.x.com", priority=5))
        assert zone.mx_hosts() == ["primary.x.com", "backup.x.com"]


class TestRegistry:
    def _registry(self):
        registry = DomainRegistry()
        registry.register(Registration(
            domain="exampel.com", zone=collection_zone("exampel.com", "1.1.1.1")))
        return registry

    def test_register_and_lookup(self):
        registry = self._registry()
        assert registry.is_registered("exampel.com")
        assert registry.is_registered("EXAMPEL.com.")
        assert not registry.is_registered("other.com")

    def test_double_registration_rejected(self):
        registry = self._registry()
        with pytest.raises(ValueError):
            registry.register(Registration(
                domain="exampel.com",
                zone=collection_zone("exampel.com", "2.2.2.2")))

    def test_deregister(self):
        registry = self._registry()
        registry.deregister("exampel.com")
        assert not registry.is_registered("exampel.com")
        with pytest.raises(KeyError):
            registry.deregister("exampel.com")

    def test_zone_origin_must_match_domain(self):
        with pytest.raises(ValueError):
            Registration(domain="a.com", zone=collection_zone("b.com", "1.1.1.1"))

    def test_zone_for_longest_suffix(self):
        registry = self._registry()
        zone = registry.zone_for("deep.sub.exampel.com")
        assert zone is not None and zone.origin == "exampel.com"
        assert registry.zone_for("unregistered.com") is None

    def test_domains_in_tld(self):
        registry = self._registry()
        registry.register(Registration(
            domain="foo.net", zone=collection_zone("foo.net", "3.3.3.3")))
        assert registry.domains_in_tld("com") == ["exampel.com"]
        assert registry.domains_in_tld("net") == ["foo.net"]

    def test_len_and_iter(self):
        registry = self._registry()
        assert len(registry) == 1
        assert [r.domain for r in registry] == ["exampel.com"]


class TestResolver:
    def _setup(self):
        registry = DomainRegistry()
        registry.register(Registration(
            domain="exampel.com", zone=collection_zone("exampel.com", "1.1.1.1")))
        # a domain with MX pointing at a third-party mail host
        zone = Zone(origin="shop.com")
        zone.add(ResourceRecord("shop.com", RecordType.MX, "mx.mailhost.com", priority=10))
        registry.register(Registration(domain="shop.com", zone=zone))
        # the mail host itself
        host_zone = Zone(origin="mailhost.com")
        host_zone.add(ResourceRecord("mx.mailhost.com", RecordType.A, "9.9.9.9"))
        registry.register(Registration(domain="mailhost.com", zone=host_zone))
        # a web-only domain: A but no MX
        web_zone = Zone(origin="webonly.com")
        web_zone.add(ResourceRecord("webonly.com", RecordType.A, "8.8.8.8"))
        registry.register(Registration(domain="webonly.com", zone=web_zone))
        # a parked domain: registered, no records at all
        registry.register(Registration(domain="parked.com", zone=Zone(origin="parked.com")))
        return Resolver(registry)

    def test_mx_route(self):
        route = self._setup().mail_route("shop.com")
        assert route.status is ResolutionStatus.OK
        assert route.mx_hosts == ("mx.mailhost.com",)
        assert route.addresses == ("9.9.9.9",)
        assert not route.used_implicit_mx

    def test_implicit_mx_fallback_rfc5321(self):
        route = self._setup().mail_route("webonly.com")
        assert route.status is ResolutionStatus.OK
        assert route.used_implicit_mx
        assert route.addresses == ("8.8.8.8",)

    def test_nxdomain(self):
        route = self._setup().mail_route("never-registered.com")
        assert route.status is ResolutionStatus.NXDOMAIN
        assert not route.can_receive_mail

    def test_no_mail_host(self):
        route = self._setup().mail_route("parked.com")
        assert route.status is ResolutionStatus.NO_MAIL_HOST
        assert not route.can_receive_mail

    def test_mx_with_unresolvable_host(self):
        registry = DomainRegistry()
        zone = Zone(origin="broken.com")
        zone.add(ResourceRecord("broken.com", RecordType.MX, "mx.gone.com", priority=1))
        registry.register(Registration(domain="broken.com", zone=zone))
        route = Resolver(registry).mail_route("broken.com")
        assert route.status is ResolutionStatus.NO_MAIL_HOST
        assert route.mx_hosts == ("mx.gone.com",)

    def test_subdomain_route_via_wildcard(self):
        route = self._setup().mail_route("any.sub.exampel.com")
        assert route.status is ResolutionStatus.OK
        assert route.addresses == ("1.1.1.1",)

    def test_resolve_a_unknown(self):
        assert self._setup().resolve_a("nope.com") == []

    def test_self_mx_collection_domain(self):
        route = self._setup().mail_route("exampel.com")
        assert route.mx_hosts == ("exampel.com",)
        assert route.addresses == ("1.1.1.1",)


class TestRouteMemo:
    """``Resolver.mail_route`` memoizes, but never serves a stale route."""

    def _world(self):
        registry = DomainRegistry()
        zone = Zone(origin="shop.com")
        zone.add(ResourceRecord("shop.com", RecordType.MX, "mx.mailhost.com",
                                priority=10))
        registry.register(Registration(domain="shop.com", zone=zone))
        host_zone = Zone(origin="mailhost.com")
        host_zone.add(ResourceRecord("mx.mailhost.com", RecordType.A,
                                     "9.9.9.9"))
        registry.register(Registration(domain="mailhost.com", zone=host_zone))
        resolver = Resolver(registry)
        assert resolver.mail_route("shop.com").addresses == ("9.9.9.9",)
        return registry, zone, host_zone, resolver

    def test_repeat_lookup_is_memoized(self):
        _, _, _, resolver = self._world()
        assert resolver.mail_route("shop.com") is \
            resolver.mail_route("shop.com")

    def test_register_invalidates(self):
        registry = DomainRegistry()
        resolver = Resolver(registry)
        assert resolver.mail_route("new.com").status is \
            ResolutionStatus.NXDOMAIN
        registry.register(Registration(
            domain="new.com", zone=collection_zone("new.com", "4.4.4.4")))
        assert resolver.mail_route("new.com").addresses == ("4.4.4.4",)

    def test_register_of_mx_host_domain_invalidates(self):
        registry = DomainRegistry()
        zone = Zone(origin="shop.com")
        zone.add(ResourceRecord("shop.com", RecordType.MX, "mx.later.com",
                                priority=1))
        registry.register(Registration(domain="shop.com", zone=zone))
        resolver = Resolver(registry)
        assert resolver.mail_route("shop.com").status is \
            ResolutionStatus.NO_MAIL_HOST
        later = Zone(origin="later.com")
        later.add(ResourceRecord("mx.later.com", RecordType.A, "5.5.5.5"))
        registry.register(Registration(domain="later.com", zone=later))
        assert resolver.mail_route("shop.com").addresses == ("5.5.5.5",)

    def test_deregister_invalidates(self):
        registry, _, _, resolver = self._world()
        registry.deregister("shop.com")
        assert resolver.mail_route("shop.com").status is \
            ResolutionStatus.NXDOMAIN

    def test_add_to_domain_zone_invalidates(self):
        _, zone, host_zone, resolver = self._world()
        host_zone.add(ResourceRecord("mx2.mailhost.com", RecordType.A,
                                     "7.7.7.7"))
        zone.add(ResourceRecord("shop.com", RecordType.MX, "mx2.mailhost.com",
                                priority=5))
        route = resolver.mail_route("shop.com")
        assert route.mx_hosts == ("mx2.mailhost.com", "mx.mailhost.com")
        assert route.addresses == ("7.7.7.7", "9.9.9.9")

    def test_add_to_mx_host_zone_invalidates(self):
        _, _, host_zone, resolver = self._world()
        host_zone.add(ResourceRecord("mx.mailhost.com", RecordType.A,
                                     "9.9.9.8"))
        assert resolver.mail_route("shop.com").addresses == \
            ("9.9.9.9", "9.9.9.8")

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(resolver_module, "_ROUTE_MEMO_MAX", 8)
        _, _, _, resolver = self._world()
        for index in range(50):
            resolver.mail_route(f"absent{index}.com")
            assert len(resolver._routes) <= 8
        assert resolver.mail_route("shop.com").addresses == ("9.9.9.9",)

    def test_surrender_mid_run_reroutes(self):
        registry = DomainRegistry()
        network = Network(SeededRng(55))
        infra = provision_study(build_study_corpus(), registry, network)
        resolver = Resolver(registry)
        assert resolver.mail_route("gmaiql.com").can_receive_mail
        surrender_domain(infra, registry, network, "gmaiql.com",
                         "google-legal")
        assert resolver.mail_route("gmaiql.com").status is \
            ResolutionStatus.NO_MAIL_HOST
        assert resolver.mail_route("ohtlook.com").can_receive_mail

    def test_faulty_resolver_servfails_over_a_memoized_route(self):
        _, _, _, resolver = self._world()
        plan = FaultPlan(seed=3, dns_spells=(
            DnsFaultSpell(start_day=2, end_day=3,
                          domain_suffixes=("shop.com",)),))
        injector = StudyFaultInjector(plan, total_days=5)
        faulty = FaultyResolver(resolver, injector)
        injector.begin_day(1)
        assert faulty.mail_route("shop.com").status is ResolutionStatus.OK
        injector.begin_day(2)
        assert faulty.mail_route("shop.com").status is \
            ResolutionStatus.SERVFAIL
        injector.begin_day(3)
        assert faulty.mail_route("shop.com").addresses == ("9.9.9.9",)
