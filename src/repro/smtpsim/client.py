"""The sending side of the simulated SMTP world.

:class:`SmtpClient` performs a full delivery attempt the way an MTA does:
resolve the recipient domain's mail route (MX with implicit-MX fallback),
connect through the :class:`~repro.smtpsim.transport.Network`, and run the
SMTP dialogue.  The structured :class:`SendResult` distinguishes the error
classes that the paper's Table 5 tabulates for honey probes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.dnssim.resolver import ResolutionStatus, Resolver
from repro.smtpsim.message import EmailMessage, parse_address
from repro.smtpsim.protocol import SmtpReply, SmtpState
from repro.smtpsim.transport import ConnectOutcome, Network

__all__ = ["SendStatus", "SendResult", "SmtpClient"]


class SendStatus(enum.Enum):
    """Terminal outcome of a delivery attempt (Table 5's row labels)."""

    DELIVERED = "delivered"         # 250 after DATA — "No error"
    BOUNCED = "bounced"             # 5xx during the dialogue
    TEMPFAIL = "tempfail"           # 4yz — retry later (RFC 5321 §4.5.4.1)
    TIMEOUT = "timeout"
    NETWORK_ERROR = "network_error"
    OTHER_ERROR = "other_error"     # TLS failures, protocol violations
    NO_ROUTE = "no_route"           # NXDOMAIN or no MX/A at all

    @property
    def is_transient(self) -> bool:
        """Outcomes a real MTA would queue and retry rather than bounce."""
        return self in (SendStatus.TEMPFAIL, SendStatus.TIMEOUT,
                        SendStatus.NETWORK_ERROR)


@dataclass(frozen=True)
class SendResult:
    status: SendStatus
    recipient: str
    tried_ips: tuple = ()
    port: Optional[int] = None
    last_reply: Optional[SmtpReply] = None

    @property
    def accepted(self) -> bool:
        return self.status is SendStatus.DELIVERED


class SmtpClient:
    """A minimal MTA: one message, one recipient, full MX logic.

    ``helo_hostname`` is presented in HELO and is stamped by the receiving
    server into the Received header — which is how the collection
    infrastructure later checks header consistency.
    """

    def __init__(self, resolver: Resolver, network: Network,
                 helo_hostname: str = "client.example.org") -> None:
        self._resolver = resolver
        self._network = network
        self.helo_hostname = helo_hostname

    def send(self, message: EmailMessage, recipient: Optional[str] = None,
             port: int = 25, timestamp: float = 0.0) -> SendResult:
        """Attempt delivery; tries each resolved address until one connects."""
        if recipient is None:
            to_header = message.recipient
            if to_header is None:
                raise ValueError("message has no To header and no explicit recipient")
            recipient = to_header.bare
        domain = parse_address(recipient).domain

        route = self._resolver.mail_route(domain)
        if route.status in (ResolutionStatus.SERVFAIL,
                            ResolutionStatus.TIMEOUT):
            # a transient resolver failure is retried, not bounced — real
            # MTAs queue on SERVFAIL exactly like on a 4yz reply
            return SendResult(SendStatus.TEMPFAIL, recipient)
        if route.status is ResolutionStatus.NXDOMAIN or not route.addresses:
            return SendResult(SendStatus.NO_ROUTE, recipient)

        tried: List[str] = []
        last_failure = SendStatus.NETWORK_ERROR
        for ip in route.addresses:
            tried.append(ip)
            connection = self._network.connect(ip, port=port)
            if connection.outcome is ConnectOutcome.TIMEOUT:
                last_failure = SendStatus.TIMEOUT
                continue
            if connection.outcome in (ConnectOutcome.NETWORK_ERROR,
                                      ConnectOutcome.REFUSED):
                last_failure = SendStatus.NETWORK_ERROR
                continue
            if connection.outcome is ConnectOutcome.OTHER_ERROR:
                last_failure = SendStatus.OTHER_ERROR
                continue

            result = self._dialogue(connection.server, message, recipient,
                                    timestamp)
            return SendResult(result[0], recipient, tuple(tried), port, result[1])

        return SendResult(last_failure, recipient, tuple(tried), port)

    def send_to_ip(self, message: EmailMessage, recipient: str, ip: str,
                   port: int = 25, timestamp: float = 0.0) -> SendResult:
        """Deliver to a specific server IP, bypassing MX resolution.

        This is how two traffic classes reach a typo domain's server: an
        SMTP-typo victim whose client is *configured* with the server's
        name (so the recipient's domain is irrelevant), and spammers who
        found the open port by scanning.
        """
        connection = self._network.connect(ip, port=port)
        if connection.outcome is ConnectOutcome.TIMEOUT:
            return SendResult(SendStatus.TIMEOUT, recipient, (ip,), port)
        if connection.outcome in (ConnectOutcome.NETWORK_ERROR,
                                  ConnectOutcome.REFUSED):
            return SendResult(SendStatus.NETWORK_ERROR, recipient, (ip,), port)
        if connection.outcome is ConnectOutcome.OTHER_ERROR:
            return SendResult(SendStatus.OTHER_ERROR, recipient, (ip,), port)
        status, reply = self._dialogue(connection.server, message, recipient,
                                       timestamp)
        return SendResult(status, recipient, (ip,), port, reply)

    # -- internals ----------------------------------------------------------

    def _dialogue(self, server, message: EmailMessage, recipient: str,
                  timestamp: float):
        session = server.open_session()
        session.banner()

        sender = message.envelope_from
        if sender is None:
            from_header = message.sender
            sender = from_header.bare if from_header else "nobody@invalid"

        reply = session.ehlo(self.helo_hostname)
        if reply.is_success:
            reply = session.mail_from(sender)
            if reply.is_success:
                reply = session.rcpt_to(recipient)
        if not reply.is_success:
            session.quit()
            if reply.is_permanent_failure:
                status = SendStatus.BOUNCED
            elif reply.is_transient_failure:
                status = SendStatus.TEMPFAIL
            else:
                status = SendStatus.OTHER_ERROR
            return status, reply

        reply = session.data()
        if reply.code != 354:
            session.quit()
            return SendStatus.OTHER_ERROR, reply

        reply = server.receive(session, message, timestamp=timestamp)
        session.quit()
        if reply.is_success:
            return SendStatus.DELIVERED, reply
        if reply.is_transient_failure:
            return SendStatus.TEMPFAIL, reply
        return SendStatus.BOUNCED, reply
