"""Tests for the SMTP state machine, servers, transport, and client."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dnssim import (
    DomainRegistry,
    Registration,
    Resolver,
    collection_zone,
)
from repro.smtpsim import (
    ConnectOutcome,
    EmailMessage,
    HostBehavior,
    Network,
    SendStatus,
    SmtpClient,
    SmtpServer,
    SmtpSession,
    SmtpState,
    domain_policy,
)
from repro.util import SeededRng


class TestSmtpSession:
    def _greeted(self):
        session = SmtpSession("mx.exampel.com")
        session.banner()
        session.command("EHLO client.org")
        return session

    def test_banner(self):
        session = SmtpSession("mx.exampel.com")
        reply = session.banner()
        assert reply.code == 220
        assert "mx.exampel.com" in reply.text

    def test_happy_path(self):
        session = self._greeted()
        assert session.command("MAIL FROM:<a@b.com>").code == 250
        assert session.command("RCPT TO:<x@exampel.com>").code == 250
        assert session.command("DATA").code == 354
        assert session.data_payload("body").code == 250
        assert session.state is SmtpState.DONE

    def test_mail_before_helo_rejected(self):
        session = SmtpSession("mx.exampel.com")
        session.banner()
        assert session.command("MAIL FROM:<a@b.com>").code == 503

    def test_rcpt_before_mail_rejected(self):
        session = self._greeted()
        assert session.command("RCPT TO:<x@y.com>").code == 503

    def test_data_before_rcpt_rejected(self):
        session = self._greeted()
        session.command("MAIL FROM:<a@b.com>")
        assert session.command("DATA").code == 503

    def test_unknown_command(self):
        assert self._greeted().command("VRFY foo").code == 502

    def test_bad_mail_syntax(self):
        assert self._greeted().command("MAIL FRM:<a@b.com>").code == 501

    def test_null_reverse_path_allowed(self):
        # bounce messages use MAIL FROM:<>
        session = self._greeted()
        assert session.command("MAIL FROM:<>").code == 250
        assert session.envelope_from == ""

    def test_rcpt_policy_rejection(self):
        session = SmtpSession("mx.x.com",
                              rcpt_policy=domain_policy(["x.com"]))
        session.banner()
        session.command("EHLO c.org")
        session.command("MAIL FROM:<a@b.com>")
        assert session.command("RCPT TO:<u@x.com>").code == 250
        assert session.command("RCPT TO:<u@other.com>").code == 550

    def test_multiple_recipients(self):
        session = self._greeted()
        session.command("MAIL FROM:<a@b.com>")
        session.command("RCPT TO:<x@c.com>")
        session.command("RCPT TO:<y@c.com>")
        assert session.envelope_to == ["x@c.com", "y@c.com"]

    def test_max_recipients(self):
        session = SmtpSession("mx.x.com", max_recipients=1)
        session.banner()
        session.command("EHLO c.org")
        session.command("MAIL FROM:<a@b.com>")
        session.command("RCPT TO:<x@c.com>")
        assert session.command("RCPT TO:<y@c.com>").code == 452

    def test_rset_clears_envelope(self):
        session = self._greeted()
        session.command("MAIL FROM:<a@b.com>")
        session.command("RCPT TO:<x@c.com>")
        session.command("RSET")
        assert session.envelope_from is None
        assert session.envelope_to == []
        assert session.state is SmtpState.GREETED

    def test_quit_closes(self):
        session = self._greeted()
        assert session.command("QUIT").code == 221
        with pytest.raises(RuntimeError):
            session.command("NOOP")

    def test_starttls_flow(self):
        session = self._greeted()
        assert session.command("STARTTLS").code == 220
        assert session.tls_active

    def test_starttls_broken(self):
        session = SmtpSession("mx.x.com", starttls_broken=True)
        session.banner()
        session.command("EHLO c.org")
        assert session.command("STARTTLS").code == 454

    def test_starttls_not_offered(self):
        session = SmtpSession("mx.x.com", supports_starttls=False)
        session.banner()
        session.command("EHLO c.org")
        assert session.command("STARTTLS").code == 502

    def test_ehlo_advertises_starttls(self):
        session = SmtpSession("mx.x.com")
        session.banner()
        reply = session.command("EHLO c.org")
        assert "STARTTLS" in reply.text

    def test_transcript_recorded(self):
        session = self._greeted()
        assert len(session.transcript) >= 2


class TestServerAndNetwork:
    def _collector(self):
        received = []
        server = SmtpServer(hostname="gmial.com", ip="1.1.1.1",
                            on_delivery=received.append)
        return server, received

    def test_receive_stamps_and_delivers(self):
        server, received = self._collector()
        session = server.open_session()
        session.banner()
        session.command("EHLO sender.org")
        session.command("MAIL FROM:<a@sender.org>")
        session.command("RCPT TO:<bob@gmial.com>")
        session.command("DATA")
        msg = EmailMessage.create("a@sender.org", "bob@gmial.com", "s", "b")
        reply = server.receive(session, msg, timestamp=123.0)
        assert reply.code == 250
        assert len(received) == 1
        assert received[0].received_by_ip == "1.1.1.1"
        assert received[0].received_at == 123.0
        assert "by gmial.com" in received[0].get_header("Received")
        assert server.accepted_count == 1

    def test_receive_out_of_sequence_rejected(self):
        server, received = self._collector()
        session = server.open_session()
        session.banner()
        msg = EmailMessage.create("a@b.com", "c@d.com", "s", "b")
        reply = server.receive(session, msg)
        assert reply.code == 503
        assert received == []
        assert server.rejected_count == 1

    def test_network_attach_and_connect(self):
        network = Network(SeededRng(1))
        server, _ = self._collector()
        network.attach("1.1.1.1", server)
        result = network.connect("1.1.1.1")
        assert result.ok
        assert result.server is server

    def test_network_refused_when_empty(self):
        network = Network(SeededRng(1))
        assert network.connect("9.9.9.9").outcome is ConnectOutcome.REFUSED

    def test_network_refused_on_closed_port(self):
        network = Network(SeededRng(1))
        server = SmtpServer(hostname="x.com", ip="1.1.1.1", ports={25})
        network.attach("1.1.1.1", server)
        assert network.connect("1.1.1.1", port=465).outcome is ConnectOutcome.REFUSED

    def test_duplicate_ip_rejected(self):
        network = Network(SeededRng(1))
        server, _ = self._collector()
        network.attach("1.1.1.1", server)
        with pytest.raises(ValueError):
            network.attach("1.1.1.1", server)

    def test_timeout_behavior(self):
        network = Network(SeededRng(2))
        server, _ = self._collector()
        network.attach("1.1.1.1", server,
                       behavior=HostBehavior(timeout_probability=1.0))
        assert network.connect("1.1.1.1").outcome is ConnectOutcome.TIMEOUT

    def test_behavior_probabilities_validated(self):
        with pytest.raises(ValueError):
            HostBehavior(timeout_probability=0.7, network_error_probability=0.6)

    def test_listening_ports_scan(self):
        network = Network(SeededRng(1))
        server = SmtpServer(hostname="x.com", ip="1.1.1.1", ports={25, 587})
        network.attach("1.1.1.1", server)
        assert network.listening_ports("1.1.1.1") == (25, 587)
        assert network.listening_ports("8.8.8.8") == ()


class TestSmtpClient:
    def _world(self):
        registry = DomainRegistry()
        registry.register(Registration(
            domain="gmial.com", zone=collection_zone("gmial.com", "1.1.1.1")))
        network = Network(SeededRng(3))
        received = []
        server = SmtpServer(hostname="gmial.com", ip="1.1.1.1",
                            on_delivery=received.append)
        network.attach("1.1.1.1", server)
        client = SmtpClient(Resolver(registry), network,
                            helo_hostname="sender.org")
        return client, received, network

    def test_end_to_end_delivery(self):
        client, received, _ = self._world()
        msg = EmailMessage.create("alice@sender.org", "bob@gmial.com",
                                  "hi", "typo mail")
        result = client.send(msg, timestamp=42.0)
        assert result.status is SendStatus.DELIVERED
        assert result.accepted
        assert len(received) == 1
        assert received[0].envelope_to == ["bob@gmial.com"]
        assert received[0].received_at == 42.0

    def test_no_route_for_unregistered_domain(self):
        client, _, _ = self._world()
        msg = EmailMessage.create("a@b.org", "x@not-registered.com", "s", "b")
        assert client.send(msg).status is SendStatus.NO_ROUTE

    def test_subdomain_delivery_via_wildcard(self):
        client, received, _ = self._world()
        msg = EmailMessage.create("a@b.org", "x@smtp.gmial.com", "s", "b")
        assert client.send(msg).status is SendStatus.DELIVERED
        assert received[0].envelope_to == ["x@smtp.gmial.com"]

    def test_bounce_on_rejecting_policy(self):
        client, _, network = self._world()
        network.detach("1.1.1.1")
        server = SmtpServer(hostname="gmial.com", ip="1.1.1.1",
                            rcpt_policy=domain_policy(["other.com"]))
        network.attach("1.1.1.1", server)
        msg = EmailMessage.create("a@b.org", "x@gmial.com", "s", "b")
        assert client.send(msg).status is SendStatus.BOUNCED

    def test_timeout_reported(self):
        client, _, network = self._world()
        network.set_behavior("1.1.1.1", HostBehavior(timeout_probability=1.0))
        msg = EmailMessage.create("a@b.org", "x@gmial.com", "s", "b")
        assert client.send(msg).status is SendStatus.TIMEOUT

    def test_explicit_recipient_overrides_header(self):
        client, received, _ = self._world()
        msg = EmailMessage.create("a@b.org", "x@elsewhere.com", "s", "b")
        result = client.send(msg, recipient="y@gmial.com")
        assert result.status is SendStatus.DELIVERED
        assert received[0].envelope_to == ["y@gmial.com"]

    def test_missing_recipient_raises(self):
        client, _, _ = self._world()
        with pytest.raises(ValueError):
            client.send(EmailMessage())


# -- verb / text parity ---------------------------------------------------------

_HOSTS = st.sampled_from(["client.org", "", "mx.b.com"])
_ADDRESSES = st.one_of(
    st.sampled_from(["", "<>", "nobody", "a@b.com", " a@b.com ", "<a@b.com>",
                     "  ", "x@other.com", "MiXeD@B.com"]),
    st.text(alphabet="ab@<> .", max_size=8),
)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("EHLO"), _HOSTS),
    st.tuples(st.just("MAIL"), _ADDRESSES),
    st.tuples(st.just("RCPT"), _ADDRESSES),
    st.tuples(st.just("DATA"), st.none()),
    st.tuples(st.just("QUIT"), st.none()),
), max_size=8)
_LINE_STYLES = st.tuples(st.booleans(), st.booleans(), st.booleans())


def _text_line(verb, argument, lower, padded, space_after_colon):
    """The command line a client would send for one verb call."""
    keyword = {"MAIL": "FROM:", "RCPT": "TO:"}.get(verb)
    if lower:
        verb = verb.lower()
        keyword = keyword and keyword.lower()
    if keyword is not None:
        gap = " " if space_after_colon else ""
        line = f"{verb} {keyword}{gap}<{argument}>"
    elif argument is not None:
        line = f"{verb} {argument}"
    else:
        line = verb
    return f"  {line}  " if padded else line


def _call_verb(session, verb, argument):
    if verb == "EHLO":
        return session.ehlo(argument)
    if verb == "MAIL":
        return session.mail_from(argument)
    if verb == "RCPT":
        return session.rcpt_to(argument)
    if verb == "DATA":
        return session.data()
    return session.quit()


def _outcome(call):
    try:
        return call()
    except RuntimeError as error:
        return ("RuntimeError", str(error))


def _observable(session):
    return (session.state, session.client_hostname, session.envelope_from,
            list(session.envelope_to))


class TestVerbTextParity:
    """The verbs and the text parser drive one state machine."""

    @settings(max_examples=300, deadline=None)
    @given(_STEPS, _LINE_STYLES)
    @example([("EHLO", "c.org"), ("MAIL", "nobody")], (False, False, False))
    @example([("EHLO", "c.org"), ("MAIL", ""), ("RCPT", "nobody")],
             (False, False, False))
    def test_verbs_match_command_lines(self, steps, style):
        def open_session():
            session = SmtpSession("mx.b.com", max_recipients=2,
                                  rcpt_policy=domain_policy(["b.com"]))
            session.banner()
            return session

        by_text, by_verb = open_session(), open_session()
        for verb, argument in steps:
            text_reply = _outcome(lambda: by_text.command(
                _text_line(verb, argument, *style)))
            verb_reply = _outcome(lambda: _call_verb(by_verb, verb, argument))
            assert text_reply == verb_reply, (verb, argument)
            assert _observable(by_text) == _observable(by_verb)
        assert by_text.transcript == by_verb.transcript

    def test_verbs_require_an_at_sign(self):
        session = SmtpSession("mx.b.com")
        session.banner()
        session.ehlo("c.org")
        assert session.mail_from("nobody").code == 501
        assert session.mail_from("").code == 250
        assert session.rcpt_to("nobody").code == 501
        assert session.envelope_to == []

    def test_transcript_renders_each_reply(self):
        session = SmtpSession("mx.b.com")
        session.banner()
        session.ehlo("c.org")
        session.quit()
        assert session.transcript == [
            "220 mx.b.com ESMTP ready",
            "250 mx.b.com greets c.org\nSTARTTLS",
            "221 mx.b.com closing connection",
        ]
        with pytest.raises(RuntimeError):
            session.data()
