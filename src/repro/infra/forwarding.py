"""SMTP forwarding from the VPS fleet to the main collection server.

Figure 1's topology is two SMTP hops: a typo domain's dedicated VPS
accepts the mail, then *relays it over SMTP* to the main collection
server.  The indirection is deliberate — people who look up a typo domain
see only an anonymous VPS, not the research infrastructure — and it
leaves a fingerprint the funnel's Layer 1 checks: the collection server's
Received header names the VPS (one of the registered typo domains) as the
connecting client.

:func:`attach_forwarding` rewires a provisioned infrastructure from the
direct-callback shortcut to the real two-hop path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.infra.collector import MainCollectionServer
from repro.smtpsim.message import EmailMessage
from repro.smtpsim.protocol import accept_all_policy
from repro.smtpsim.server import SmtpServer
from repro.smtpsim.transport import Network

__all__ = ["COLLECTOR_HOSTNAME", "COLLECTOR_IP", "attach_forwarding",
           "ForwardingStats"]

COLLECTOR_HOSTNAME = "collector.study-infra.net"
COLLECTOR_IP = "198.51.99.1"


@dataclass
class ForwardingStats:
    forwarded: int = 0
    forward_failures: int = 0


def attach_forwarding(infra, network: Network,
                      collector: Optional[MainCollectionServer] = None
                      ) -> ForwardingStats:
    """Rewire each VPS to relay over SMTP into a central collector server.

    ``infra`` is a :class:`~repro.infra.provisioning.CollectionInfrastructure`
    whose VPS servers currently deliver straight into the Python-level
    collector; afterwards each accepted message makes a real second SMTP
    hop, gaining the collector's Received header stamped with the VPS
    hostname.
    """
    collector = collector or infra.collector
    stats = ForwardingStats()

    collector_server = SmtpServer(
        hostname=COLLECTOR_HOSTNAME,
        ip=COLLECTOR_IP,
        rcpt_policy=accept_all_policy,
        on_delivery=collector.ingest,
    )
    network.attach(COLLECTOR_IP, collector_server)

    for domain, vps in infra.servers.items():
        vps.on_delivery = _make_forwarder(vps, collector_server, stats)
    return stats


def _make_forwarder(vps: SmtpServer, collector_server: SmtpServer,
                    stats: ForwardingStats):
    """The VPS-side relay: one SMTP transaction into the collector."""

    def forward(message: EmailMessage) -> None:
        session = collector_server.open_session()
        session.banner()
        # the VPS identifies itself with its typo-domain hostname: the
        # fingerprint Layer 1 verifies
        session.ehlo(vps.hostname)
        sender = message.envelope_from or "forwarder@invalid"
        reply = session.mail_from(sender)
        if not reply.is_success:
            stats.forward_failures += 1
            return
        recipients = message.envelope_to or ["catchall@collector"]
        accepted_any = False
        for recipient in recipients:
            if session.rcpt_to(recipient).is_success:
                accepted_any = True
        if not accepted_any:
            stats.forward_failures += 1
            return
        if session.data().code != 354:
            stats.forward_failures += 1
            return
        reply = collector_server.receive(session, message,
                                         timestamp=message.received_at)
        if reply.is_success:
            stats.forwarded += 1
        else:
            stats.forward_failures += 1

    return forward
