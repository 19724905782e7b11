"""The SMTP protocol state machine (RFC 5321 subset).

Both the catch-all collection server and the honey-email sending client
speak through :class:`SmtpSession`, which enforces command ordering
(HELO before MAIL, MAIL before RCPT, RCPT before DATA) and produces the
standard three-digit reply codes.  Modelling the protocol rather than
passing messages around is what lets the honey experiment observe the
paper's error taxonomy (bounces vs. timeouts vs. network errors).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

__all__ = ["SmtpReply", "SmtpState", "SmtpSession", "SMTP_PORTS", "RcptPolicy"]

#: Standard submission ports probed by the honey campaign: cleartext,
#: implicit TLS, and STARTTLS.
SMTP_PORTS = (25, 465, 587)


@dataclass(frozen=True)
class SmtpReply:
    code: int
    text: str

    @property
    def is_success(self) -> bool:
        return 200 <= self.code < 400

    @property
    def is_permanent_failure(self) -> bool:
        return 500 <= self.code < 600

    @property
    def is_transient_failure(self) -> bool:
        """RFC 5321 4yz: try again later (tempfail, greylisting, 421)."""
        return 400 <= self.code < 500

    def __str__(self) -> str:
        # replies are shared across sessions (see the reply caches below)
        # and re-rendered on every transcript read, so the wire string is
        # memoized per instance
        rendered = self.__dict__.get("_rendered")
        if rendered is None:
            rendered = f"{self.code} {self.text}"
            object.__setattr__(self, "_rendered", rendered)
        return rendered


class SmtpState(enum.Enum):
    """Phases of one SMTP conversation."""
    CONNECTED = "connected"     # banner sent, waiting for HELO/EHLO
    GREETED = "greeted"         # HELO done
    MAIL = "mail"               # MAIL FROM accepted
    RCPT = "rcpt"               # at least one RCPT TO accepted
    DATA = "data"               # in message body
    DONE = "done"               # message accepted
    CLOSED = "closed"


#: Decides whether a recipient is accepted: returns (accept, reply-text).
RcptPolicy = Callable[[str], Tuple[bool, str]]

# Shared instances of the fixed-text replies; SmtpReply is frozen, so the
# hot transaction path can reuse them instead of re-allocating per command.
# Hostname-dependent replies (banner, greeting, QUIT) are shared through
# a bounded cache keyed on their formatted inputs.
_HOST_REPLY_CACHE: dict = {}
_HOST_REPLY_CACHE_MAX = 1 << 15


def _store_host_reply(key, reply: "SmtpReply") -> "SmtpReply":
    if len(_HOST_REPLY_CACHE) >= _HOST_REPLY_CACHE_MAX:
        _HOST_REPLY_CACHE.clear()
    _HOST_REPLY_CACHE[key] = reply
    return reply


_REPLY_OK = SmtpReply(250, "OK")
_REPLY_DATA_GO = SmtpReply(354, "start mail input; end with <CRLF>.<CRLF>")
_REPLY_ACCEPTED = SmtpReply(250, "OK message accepted")
_REPLY_BAD_SEQUENCE = SmtpReply(503, "bad sequence of commands")
_REPLY_NOT_IMPLEMENTED = SmtpReply(502, "command not implemented")


def accept_all_policy(recipient: str) -> Tuple[bool, str]:
    """The study's catch-all policy: any user, any domain (paper §4.2.2)."""
    return True, "OK"


class SmtpSession:
    """Server-side SMTP conversation.

    Drive it with the verbs (:meth:`ehlo`, :meth:`mail_from`,
    :meth:`rcpt_to`, :meth:`data`, :meth:`quit`) or with text
    :meth:`command` lines, which parse into the same handlers, and a
    final :meth:`data_payload`; the session records the envelope so the
    server can construct the received message.  STARTTLS is modelled as
    a capability flag that the ecosystem scanner reads; no actual
    cryptography is simulated.
    """

    def __init__(self, server_hostname: str,
                 rcpt_policy: RcptPolicy = accept_all_policy,
                 supports_starttls: bool = True,
                 starttls_broken: bool = False,
                 max_recipients: int = 100) -> None:
        self.server_hostname = server_hostname
        self.rcpt_policy = rcpt_policy
        self.supports_starttls = supports_starttls
        self.starttls_broken = starttls_broken
        self.max_recipients = max_recipients
        self.state = SmtpState.CONNECTED
        self.client_hostname: Optional[str] = None
        self.envelope_from: Optional[str] = None
        self.envelope_to: List[str] = []
        self.tls_active = False
        self._replies: List[SmtpReply] = []

    @property
    def transcript(self) -> List[str]:
        """Every reply sent so far, as wire strings, in order."""
        return [str(reply) for reply in self._replies]

    # -- banner -------------------------------------------------------------

    def banner(self) -> SmtpReply:
        """The 220 service-ready greeting that opens the conversation."""
        key = ("banner", self.server_hostname)
        reply = _HOST_REPLY_CACHE.get(key)
        if reply is None:
            reply = _store_host_reply(
                key, SmtpReply(220, f"{self.server_hostname} ESMTP ready"))
        return self._log(reply)

    # -- verbs ----------------------------------------------------------------

    def ehlo(self, hostname: str) -> SmtpReply:
        """``EHLO hostname``."""
        self._check_open()
        return self._log(self._ehlo(hostname))

    def mail_from(self, address: str) -> SmtpReply:
        """``MAIL FROM:<address>``; ``""`` is the null reverse-path."""
        self._check_open()
        return self._log(self._mail(address))

    def rcpt_to(self, address: str) -> SmtpReply:
        """``RCPT TO:<address>``."""
        self._check_open()
        return self._log(self._rcpt(address))

    def data(self) -> SmtpReply:
        """``DATA``: 354 when at least one recipient was accepted."""
        self._check_open()
        return self._log(self._data(""))

    def quit(self) -> SmtpReply:
        """``QUIT``: closes the session."""
        self._check_open()
        return self._log(self._quit(""))

    # -- command dispatch -----------------------------------------------------

    #: verb -> unbound handler; class-level so dispatch costs one dict
    #: lookup per command instead of building the table per call
    _HANDLERS = {
        "HELO": "_helo",
        "EHLO": "_ehlo",
        "MAIL": "_mail_line",
        "RCPT": "_rcpt_line",
        "DATA": "_data",
        "RSET": "_rset",
        "NOOP": "_noop",
        "QUIT": "_quit",
        "STARTTLS": "_starttls",
    }

    def command(self, line: str) -> SmtpReply:
        """Parse one client command line and return the server reply."""
        self._check_open()
        verb, _, argument = line.strip().partition(" ")
        # clients overwhelmingly send upper-case verbs already; only pay
        # for .upper() when the exact-match lookup misses
        handler_name = self._HANDLERS.get(verb) \
            or self._HANDLERS.get(verb.upper())
        if handler_name is None:
            return self._log(_REPLY_NOT_IMPLEMENTED)
        return self._log(getattr(self, handler_name)(argument.strip()))

    def data_payload(self, payload: str) -> SmtpReply:
        """Deliver the message body after a successful DATA command."""
        if self.state is not SmtpState.DATA:
            return self._log(_REPLY_BAD_SEQUENCE)
        self.state = SmtpState.DONE
        return self._log(_REPLY_ACCEPTED)

    # -- handlers --------------------------------------------------------------

    def _helo(self, argument: str) -> SmtpReply:
        if not argument:
            return SmtpReply(501, "syntax: HELO hostname")
        self.client_hostname = argument
        self.state = SmtpState.GREETED
        key = ("helo", self.server_hostname, argument)
        reply = _HOST_REPLY_CACHE.get(key)
        if reply is None:
            reply = _store_host_reply(key, SmtpReply(
                250, f"{self.server_hostname} greets {argument}"))
        return reply

    def _ehlo(self, argument: str) -> SmtpReply:
        reply = self._helo(argument)
        if reply.is_success and self.supports_starttls:
            key = ("ehlo", self.server_hostname, argument)
            extended = _HOST_REPLY_CACHE.get(key)
            if extended is None:
                extended = _store_host_reply(
                    key, SmtpReply(250, f"{reply.text}\nSTARTTLS"))
            return extended
        return reply

    def _starttls(self, argument: str) -> SmtpReply:
        if not self.supports_starttls:
            return SmtpReply(502, "STARTTLS not offered")
        if self.starttls_broken:
            return SmtpReply(454, "TLS not available due to temporary reason")
        if self.state is SmtpState.CONNECTED:
            return SmtpReply(503, "send EHLO first")
        self.tls_active = True
        return SmtpReply(220, "ready to start TLS")

    def _mail_line(self, argument: str) -> SmtpReply:
        return self._mail(_extract_path(argument, "FROM"))

    def _rcpt_line(self, argument: str) -> SmtpReply:
        return self._rcpt(_extract_path(argument, "TO"))

    def _mail(self, address: Optional[str]) -> SmtpReply:
        if self.state not in (SmtpState.GREETED, SmtpState.DONE):
            return SmtpReply(503, "send HELO/EHLO first")
        # the null reverse-path is legal (bounces); any other needs an @
        if address is None or (address and "@" not in address):
            return SmtpReply(501, "syntax: MAIL FROM:<address>")
        self.envelope_from = address
        self.envelope_to = []
        self.state = SmtpState.MAIL
        return _REPLY_OK

    def _rcpt(self, address: Optional[str]) -> SmtpReply:
        if self.state not in (SmtpState.MAIL, SmtpState.RCPT):
            return SmtpReply(503, "need MAIL before RCPT")
        if address is None or (address and "@" not in address):
            return SmtpReply(501, "syntax: RCPT TO:<address>")
        if len(self.envelope_to) >= self.max_recipients:
            return SmtpReply(452, "too many recipients")
        accepted, text = self.rcpt_policy(address)
        if not accepted:
            return SmtpReply(550, text or "mailbox unavailable")
        self.envelope_to.append(address)
        self.state = SmtpState.RCPT
        return _REPLY_OK if (not text or text == "OK") \
            else SmtpReply(250, text)

    def _data(self, argument: str) -> SmtpReply:
        if self.state is not SmtpState.RCPT:
            return SmtpReply(503, "need RCPT before DATA")
        self.state = SmtpState.DATA
        return _REPLY_DATA_GO

    def _rset(self, argument: str) -> SmtpReply:
        if self.state is not SmtpState.CONNECTED:
            self.state = SmtpState.GREETED
        self.envelope_from = None
        self.envelope_to = []
        return _REPLY_OK

    def _noop(self, argument: str) -> SmtpReply:
        return _REPLY_OK

    def _quit(self, argument: str) -> SmtpReply:
        self.state = SmtpState.CLOSED
        key = ("quit", self.server_hostname)
        reply = _HOST_REPLY_CACHE.get(key)
        if reply is None:
            reply = _store_host_reply(key, SmtpReply(
                221, f"{self.server_hostname} closing connection"))
        return reply

    def _check_open(self) -> None:
        if self.state is SmtpState.CLOSED:
            raise RuntimeError("session is closed")

    def _log(self, reply: SmtpReply) -> SmtpReply:
        self._replies.append(reply)
        return reply


def _extract_path(argument: str, keyword: str) -> Optional[str]:
    """Unwrap ``FROM:<path>`` / ``TO:<path>``; None on a bad keyword.

    The path itself is checked by the MAIL/RCPT handler, so the text and
    verb entries reject the same addresses.
    """
    prefix = argument[:len(keyword) + 1]
    # exact match first: only pay for case folding on the rare
    # lower/mixed-case client
    if prefix != keyword + ":" and prefix.upper() != keyword + ":":
        return None
    path = argument[len(keyword) + 1:].strip()
    if path.startswith("<") and path.endswith(">"):
        path = path[1:-1]
    return path
