"""The five-layer email classification funnel (paper Section 4.3).

Each email flows through the layers in order; the first layer that claims
it determines its class, and emails claimed as spam feed the collaborative
database that strengthens Layer 3 for subsequent mail:

1. **Header sanity** — the relaying server must be one of our domains, the
   sender must *not* be (we never send), and receiver-typo candidates must
   actually be addressed to one of our domains.
2. **SpamAssassin** — rule-based scoring, plus the study's hard rule that
   ZIP/RAR attachments mean spam.
3. **Collaborative filtering** — once a sender sends spam anywhere in the
   study, all their mail is spam; ditto any message whose bag-of-words
   (>20 words) matches known spam.
4. **Reflection-typo detection** — mailing-list/automation fingerprints
   (unsubscribe headers, bounce senders, mismatched From/Reply-To/
   Return-Path, system users) mark automated reflection mail.
5. **Frequency filtering** — emails whose recipient address, sender
   address, or body text recur too often are filtered (thresholds
   20/10/10 as in the paper).  Frequency-filtered SMTP candidates form
   the ambiguous band the paper reports as 415–5,970 emails/year: one
   misconfigured client legitimately sends many emails, so some of the
   filtered mail may be real.

The funnel is factored into two stages so a paper-scale corpus can be
classified in parallel and in bounded memory:

* **Stage A** (:meth:`FilterFunnel.summarize`) is a pure function of one
  tokenised email: it evaluates Layers 1, 2 and 4 and extracts every
  stateful-layer input (sender, bag-of-words, content hash, lowered
  frequency keys) into a compact slotted :class:`MessageSummary`.  It
  touches no funnel state, so summaries can be computed out of order, on
  worker processes, or day-by-day as mail arrives.
* **Stage B** (:class:`SummaryFold`) is the cheap serial fold that
  consumes summaries in arrival order: the collaborative database
  (Layer 3, including its retroactive pass) and corpus-wide frequency
  thresholds (Layer 5) live here and only here.

:meth:`classify` and :meth:`classify_corpus` are thin compositions of
the two stages and produce byte-identical results to the historical
single-stage implementations.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.pipeline.tokenizer import TokenizedEmail
from repro.spamfilter.spamassassin import SpamAssassinScorer
from repro.util.journal import Appended, Counted
from repro.util.textcache import BoundedMemo

__all__ = [
    "Verdict",
    "FilterResult",
    "FunnelConfig",
    "FilterFunnel",
    "CollaborativeDatabase",
    "MessageSummary",
    "SummaryFold",
]


class Verdict(enum.Enum):
    """The funnel's four terminal classifications."""
    SPAM = "spam"
    REFLECTION = "reflection"          # automated mail from a signup typo
    FREQUENCY_FILTERED = "frequency"   # too-common sender/recipient/content
    TRUE_TYPO = "true_typo"

    @property
    def figure_category(self) -> str:
        """The three series of Figures 3/4."""
        if self is Verdict.SPAM:
            return "spam_filtered"
        if self is Verdict.TRUE_TYPO:
            return "real_typos"
        return "reflection_and_frequency_filtered"


@dataclass(frozen=True)
class FilterResult:
    verdict: Verdict
    kind: str                 # receiver | smtp — candidate class from the header
    layer: Optional[int]      # which layer claimed the email (None = survived all)
    reason: str = ""

    @property
    def is_true_typo(self) -> bool:
        return self.verdict is Verdict.TRUE_TYPO

    def to_canonical_dict(self) -> Dict:
        """JSON-ready projection (study-checkpoint persistence)."""
        return {"verdict": self.verdict.value, "kind": self.kind,
                "layer": self.layer, "reason": self.reason}

    @classmethod
    def from_canonical_dict(cls, data: Dict) -> "FilterResult":
        return cls(verdict=Verdict(data["verdict"]), kind=data["kind"],
                   layer=data["layer"], reason=data["reason"])


@dataclass(frozen=True)
class FunnelConfig:
    """Thresholds from the paper (Section 4.3, Layer 5)."""

    recipient_frequency_threshold: int = 20
    sender_frequency_threshold: int = 10
    content_frequency_threshold: int = 10
    bag_of_words_minimum: int = 20
    spamassassin_threshold: float = 5.0


# bounded memo tables keyed by message text, shared process-wide (every
# cached value is a pure function of its key, so staleness is impossible;
# campaign spam repeats bodies verbatim, so these mostly hit)
_WORDS_MEMO = BoundedMemo("funnel.bag_of_words")
_CONTENT_HASH_MEMO = BoundedMemo("funnel.content_hash")
_SENDER_MEMO = BoundedMemo("funnel.sender_address")
_REFLECTION_BODY_MEMO = BoundedMemo("funnel.reflection_body")
_RELAY_HOSTS_MEMO = BoundedMemo("funnel.relay_hosts")


class MessageSummary:
    """Stage A's compact projection of one tokenised email.

    Holds the Layer-1/2/4 decisions (pure per-message work) plus every
    input the stateful fold needs — nothing else, so the bounded-memory
    streaming mode can release the raw message and keep only this.  The
    class is slotted and contains only strings/tuples/frozensets, so it
    pickles cheaply across the parallel stage-A workers.

    ``layer2``/``layer4`` (and the frequency keys) are ``None`` when an
    earlier layer already claimed the email — stage A short-circuits in
    the same order the serial funnel does, so the two paths do the same
    work per message.
    """

    __slots__ = ("sequence", "kind", "layer1", "layer2", "layer4",
                 "sender", "sender_lower", "recipients", "recipients_lower",
                 "content_hash", "bag")

    def __init__(self, sequence: Optional[int], kind: str,
                 layer1: Optional[str], layer2: Optional[str],
                 layer4: Optional[str], sender: Optional[str],
                 sender_lower: Optional[str],
                 recipients: Tuple[str, ...],
                 recipients_lower: Tuple[str, ...],
                 content_hash: Optional[str],
                 bag: Optional[FrozenSet[str]]) -> None:
        self.sequence = sequence
        self.kind = kind
        self.layer1 = layer1
        self.layer2 = layer2
        self.layer4 = layer4
        self.sender = sender
        self.sender_lower = sender_lower
        self.recipients = recipients
        self.recipients_lower = recipients_lower
        self.content_hash = content_hash
        self.bag = bag

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def to_canonical_dict(self) -> Dict:
        """JSON-ready projection (study-checkpoint persistence).

        ``bag`` is an unordered frozenset; sorting makes the encoding
        canonical, and membership semantics survive the round trip.
        """
        return {
            "sequence": self.sequence,
            "kind": self.kind,
            "layer1": self.layer1,
            "layer2": self.layer2,
            "layer4": self.layer4,
            "sender": self.sender,
            "sender_lower": self.sender_lower,
            "recipients": list(self.recipients),
            "recipients_lower": list(self.recipients_lower),
            "content_hash": self.content_hash,
            "bag": sorted(self.bag) if self.bag is not None else None,
        }

    @classmethod
    def from_canonical_dict(cls, data: Dict) -> "MessageSummary":
        bag = data["bag"]
        return cls(
            sequence=data["sequence"],
            kind=data["kind"],
            layer1=data["layer1"],
            layer2=data["layer2"],
            layer4=data["layer4"],
            sender=data["sender"],
            sender_lower=data["sender_lower"],
            recipients=tuple(data["recipients"]),
            recipients_lower=tuple(data["recipients_lower"]),
            content_hash=data["content_hash"],
            bag=frozenset(bag) if bag is not None else None,
        )


class CollaborativeDatabase:
    """Shared spam knowledge across all of the study's domains (Layer 3).

    Both sets are dicts with ``None`` values, i.e. insertion-ordered
    sets: they only grow, so the study journal appends new members
    instead of re-writing the whole set each save.
    """

    def __init__(self, bag_of_words_minimum: int = 20) -> None:
        self.spam_senders: Dict[str, None] = {}
        self.spam_bags: Dict[FrozenSet[str], None] = {}
        self._bow_minimum = bag_of_words_minimum

    def record_spam(self, sender: Optional[str], body: str) -> None:
        """Learn from one spam decision: blacklist sender, remember body."""
        self.record_summary(sender.lower() if sender else None,
                            self._bag(body))

    def matches(self, sender: Optional[str], body: str) -> Optional[str]:
        """A human-readable reason when the email matches known spam."""
        return self.matches_summary(sender, sender.lower() if sender else None,
                                    self._bag(body))

    def record_summary(self, sender_lower: Optional[str],
                       bag: Optional[FrozenSet[str]]) -> None:
        """:meth:`record_spam` with the keys already extracted (stage B)."""
        if sender_lower:
            self.spam_senders[sender_lower] = None
        if bag is not None:
            self.spam_bags[bag] = None

    def matches_summary(self, sender: Optional[str],
                        sender_lower: Optional[str],
                        bag: Optional[FrozenSet[str]]) -> Optional[str]:
        """:meth:`matches` with the keys already extracted (stage B)."""
        if sender and sender_lower in self.spam_senders:
            return f"sender {sender} previously sent spam"
        if bag is not None and bag in self.spam_bags:
            return "body bag-of-words matches known spam"
        return None

    def state_dict(self) -> Dict:
        """The learned spam knowledge as journal fields, in learning order."""
        return {
            "spam_senders": Appended(self.spam_senders),
            "spam_bags": Appended(self.spam_bags, sorted),
        }

    def restore_state(self, data: Dict) -> None:
        self.spam_senders = dict.fromkeys(data["spam_senders"])
        self.spam_bags = dict.fromkeys(frozenset(bag)
                                       for bag in data["spam_bags"])

    def _bag(self, body: str) -> Optional[FrozenSet[str]]:
        # the word set is a pure function of the body; campaign spam repeats
        # bodies verbatim and every survivor is bagged twice (pass 1 +
        # retroactive pass 2).  The threshold stays per-instance.
        words = _WORDS_MEMO.table.get(body)
        if words is None:
            words = frozenset(re.findall(r"[a-z0-9']+", body.lower()))
            _WORDS_MEMO.put(body, words)
        else:
            _WORDS_MEMO.hits += 1
        if len(words) > self._bow_minimum:
            return words
        return None


_SYSTEM_USERS = frozenset({
    "postmaster", "root", "admin", "administrator", "mailer-daemon",
    "noreply", "no-reply", "donotreply", "do-not-reply", "notifications",
    "notification", "alerts", "newsletter", "support", "info",
})

_REFLECTION_BODY_PHRASES = (
    "unsubscribe", "remove yourself", "opt out", "opt-out",
    "manage your preferences", "email preferences",
    "you are receiving this", "you're receiving this",
    "update your subscription", "mailing list",
)


def _reflection_body_reason(body: str) -> Optional[str]:
    """First matching reflection phrase reason, memoised per unique body.

    The empty string stands in for "no phrase matched" so the memo table
    never stores ``None`` (a miss and a negative result must differ).
    """
    reason = _REFLECTION_BODY_MEMO.table.get(body)
    if reason is None:
        lowered = body.lower()
        reason = ""
        for phrase in _REFLECTION_BODY_PHRASES:
            if phrase in lowered:
                reason = f"body contains {phrase!r}"
                break
        _REFLECTION_BODY_MEMO.put(body, reason)
    else:
        _REFLECTION_BODY_MEMO.hits += 1
    return reason or None


class FilterFunnel:
    """Classify a stream (or corpus) of tokenised study emails.

    The funnel is stateful: Layer 3 learns from every spam decision, and
    Layer 5 needs corpus-wide frequencies.  Streaming use
    (:meth:`classify`) applies frequency thresholds against counts seen so
    far; batch use (:meth:`classify_corpus`) does the paper's two-pass
    analysis, where frequencies are computed over the whole corpus before
    any Layer-5 decision.  Both are compositions of the pure
    :meth:`summarize` stage and the stateful :class:`SummaryFold` stage.
    """

    def __init__(self, our_domains: Iterable[str],
                 smtp_purpose_ips: Optional[Iterable[str]] = None,
                 config: Optional[FunnelConfig] = None,
                 scorer: Optional[SpamAssassinScorer] = None,
                 enabled_layers: Iterable[int] = (1, 2, 3, 4, 5)) -> None:
        self.our_domains = {d.lower() for d in our_domains}
        # precomputed suffix tuple: str.endswith(tuple) runs the whole
        # subdomain scan in C instead of a per-email generator expression
        self._suffix_tuple = tuple("." + d for d in sorted(self.our_domains))
        self.smtp_purpose_ips = set(smtp_purpose_ips or ())
        self.config = config or FunnelConfig()
        self.enabled_layers = frozenset(enabled_layers)
        bad_layers = self.enabled_layers - {1, 2, 3, 4, 5}
        if bad_layers:
            raise ValueError(f"unknown funnel layers: {sorted(bad_layers)}")
        self.scorer = scorer or SpamAssassinScorer(
            threshold=self.config.spamassassin_threshold)
        self.collaborative = CollaborativeDatabase(
            bag_of_words_minimum=self.config.bag_of_words_minimum)
        self._recipient_counts: Dict[str, int] = {}
        self._sender_counts: Dict[str, int] = {}
        self._content_counts: Dict[str, int] = {}

    # -- durable state (the study checkpoint's stage-B payload) --------------

    def state_dict(self) -> Dict:
        """Every piece of fold-mutable funnel state, as journal fields.

        The counters only ever increase, so each is a
        :class:`~repro.util.journal.Counted` field and a save journals
        just the changed keys.  Configuration (domains, thresholds,
        enabled layers) is *not* included — a resumed run rebuilds the
        funnel from its config and only the learned/accumulated state
        needs restoring.
        """
        return {
            "collaborative": self.collaborative.state_dict(),
            "recipient_counts": Counted(self._recipient_counts),
            "sender_counts": Counted(self._sender_counts),
            "content_counts": Counted(self._content_counts),
        }

    def restore_state(self, data: Dict) -> None:
        self.collaborative.restore_state(data["collaborative"])
        self._recipient_counts = dict(data["recipient_counts"])
        self._sender_counts = dict(data["sender_counts"])
        self._content_counts = dict(data["content_counts"])

    # -- candidate kind ------------------------------------------------------

    def candidate_kind(self, email: TokenizedEmail) -> str:
        """Receiver/reflection candidate vs SMTP-typo candidate.

        Receiver and reflection typos are *addressed to* one of our
        domains.  SMTP typos are addressed to arbitrary third parties —
        the sender's client merely connected to our IP believing it to be
        their provider's SMTP server.
        """
        for recipient in email.metadata.envelope_to:
            domain = recipient.rpartition("@")[2].lower()
            if domain in self.our_domains or self._suffix_match(domain):
                return "receiver"
        return "smtp"

    def _suffix_match(self, domain: str) -> bool:
        return domain.endswith(self._suffix_tuple) if self._suffix_tuple \
            else False

    # -- layers ---------------------------------------------------------------

    def _layer1_header_sanity(self, email: TokenizedEmail,
                              kind: str) -> Optional[str]:
        relay_hosts = _relay_chain_hosts(email)
        if relay_hosts and relay_hosts.isdisjoint(self.our_domains):
            return ("relaying server "
                    f"{'/'.join(sorted(relay_hosts))} is not one of our "
                    "domains")
        sender_domain = _sender_domain(email)
        if sender_domain and (sender_domain in self.our_domains
                              or self._suffix_match(sender_domain)):
            return "sender claims to be one of our domains"
        if kind == "receiver":
            to_domain = _header_to_domain(email)
            if to_domain is not None and to_domain not in self.our_domains \
                    and not self._suffix_match(to_domain):
                return "To: header does not point at our domains"
        return None

    def _layer2_spamassassin(self, email: TokenizedEmail) -> Optional[str]:
        if email.has_archive_attachment:
            return "ZIP/RAR attachment"
        score = self.scorer.score(email)
        if score.is_spam:
            return f"SpamAssassin score {score.total:.1f} >= {score.threshold}"
        return None

    def _layer4_reflection(self, email: TokenizedEmail) -> Optional[str]:
        metadata = email.metadata
        if metadata.list_unsubscribe:
            return "List-Unsubscribe header present"
        for label, value in (("Sender", metadata.sender_field),
                             ("From", metadata.from_field),
                             ("Reply-To", metadata.reply_to)):
            lowered = (value or "").lower()
            if "bounce" in lowered or "unsubscribe" in lowered:
                return f"{label} field contains bounce/unsubscribe"
        trio = [v for v in (metadata.from_field, metadata.reply_to,
                            metadata.return_path) if v]
        if len(set(trio)) > 1:
            return "From/Reply-To/Return-Path disagree"
        sender = _sender_address(email)
        if sender:
            local = sender.split("@", 1)[0].lower()
            if local in _SYSTEM_USERS:
                return f"system sender {local}"
        return _reflection_body_reason(email.body)

    # -- stage A: the pure per-message summary -------------------------------

    def summarize(self, email: TokenizedEmail,
                  sequence: Optional[int] = None) -> MessageSummary:
        """Evaluate the pure layers and extract the fold's inputs.

        Reads funnel *configuration* (domains, thresholds, enabled
        layers) but never funnel *state*, so it can run on any process in
        any order.  Short-circuits exactly like the serial funnel: a
        Layer-1 claim skips the Layer-2 scorer, and a Layer-1/2/4 claim
        skips the frequency-key extraction that only Layer 5 needs.
        """
        kind = self.candidate_kind(email)
        layers = self.enabled_layers
        sender = _sender_address(email)
        sender_lower = sender.lower() if sender else None
        bag = self.collaborative._bag(email.body)

        if 1 in layers:
            layer1 = self._layer1_header_sanity(email, kind)
            if layer1 is not None:
                return MessageSummary(sequence, kind, layer1, None, None,
                                      sender, sender_lower, (), (), None, bag)
        if 2 in layers:
            layer2 = self._layer2_spamassassin(email)
            if layer2 is not None:
                return MessageSummary(sequence, kind, None, layer2, None,
                                      sender, sender_lower, (), (), None, bag)
        layer4 = self._layer4_reflection(email) if 4 in layers else None
        if layer4 is not None:
            return MessageSummary(sequence, kind, None, None, layer4,
                                  sender, sender_lower, (), (), None, bag)
        recipients = email.metadata.envelope_to
        return MessageSummary(
            sequence, kind, None, None, None, sender, sender_lower,
            recipients, tuple(r.lower() for r in recipients),
            _content_hash(email.body), bag)

    # -- classification ----------------------------------------------------------

    def _terminal_result(self, summary: MessageSummary
                         ) -> Optional[FilterResult]:
        """The Layers-1..4 decision for one summary, or None (survivor).

        This is the only stage-B code that runs per message: Layer-3
        lookups against the collaborative database, and recording every
        spam decision into it.
        """
        if summary.layer1 is not None:
            self.collaborative.record_summary(summary.sender_lower,
                                              summary.bag)
            return FilterResult(Verdict.SPAM, summary.kind, 1, summary.layer1)
        if summary.layer2 is not None:
            self.collaborative.record_summary(summary.sender_lower,
                                              summary.bag)
            return FilterResult(Verdict.SPAM, summary.kind, 2, summary.layer2)
        if 3 in self.enabled_layers:
            reason = self.collaborative.matches_summary(
                summary.sender, summary.sender_lower, summary.bag)
            if reason is not None:
                self.collaborative.record_summary(summary.sender_lower,
                                                  summary.bag)
                return FilterResult(Verdict.SPAM, summary.kind, 3, reason)
        if summary.layer4 is not None:
            return FilterResult(Verdict.REFLECTION, summary.kind, 4,
                                summary.layer4)
        return None

    def classify(self, email: TokenizedEmail,
                 update_frequencies: bool = True) -> FilterResult:
        """Streaming classification of one email."""
        summary = self.summarize(email)
        result = self._terminal_result(summary)
        if result is not None:
            return result
        if update_frequencies:
            self._bump_summary(summary)
        if 5 in self.enabled_layers:
            reason = self._frequency_reason_summary(summary)
            if reason is not None:
                return FilterResult(Verdict.FREQUENCY_FILTERED, summary.kind,
                                    5, reason)
        return FilterResult(Verdict.TRUE_TYPO, summary.kind, None,
                            "passed all layers")

    def classify_corpus(self,
                        emails: Sequence[TokenizedEmail]) -> List[FilterResult]:
        """Two-pass batch classification (the paper's offline analysis).

        Pass 1 runs Layers 1–4 and accumulates corpus-wide frequencies for
        the survivors.  Pass 2 first re-applies the collaborative layer —
        the paper's wording is retroactive ("if a sender sends us spam
        once, we consider all of the emails from that sender ... to be
        spam"), so a campaign caught late still condemns its early mail —
        and then applies Layer 5 against the complete frequency counts.
        """
        fold = SummaryFold(self)
        for email in emails:
            fold.feed(self.summarize(email))
        return fold.finalize()

    # -- stage B internals ----------------------------------------------------

    def _bump_summary(self, summary: MessageSummary) -> None:
        counts = self._recipient_counts
        for key in summary.recipients_lower:
            counts[key] = counts.get(key, 0) + 1
        sender_lower = summary.sender_lower
        if sender_lower:
            self._sender_counts[sender_lower] = \
                self._sender_counts.get(sender_lower, 0) + 1
        digest = summary.content_hash
        self._content_counts[digest] = self._content_counts.get(digest, 0) + 1

    def _frequency_reason_summary(self,
                                  summary: MessageSummary) -> Optional[str]:
        config = self.config
        for recipient, key in zip(summary.recipients,
                                  summary.recipients_lower):
            count = self._recipient_counts.get(key, 0)
            if count >= config.recipient_frequency_threshold:
                return f"recipient {recipient} seen {count} times"
        sender = summary.sender
        if sender:
            count = self._sender_counts.get(summary.sender_lower, 0)
            if count >= config.sender_frequency_threshold:
                return f"sender {sender} seen {count} times"
        count = self._content_counts.get(summary.content_hash, 0)
        if count >= config.content_frequency_threshold:
            return f"identical body seen {count} times"
        return None


class SummaryFold:
    """Stage B: the serial stateful fold over stage-A summaries.

    Feed summaries in arrival order; each :meth:`feed` returns the
    email's *terminal* result (Layers 1–4) or ``None`` when the verdict
    is provisional until the corpus-wide pass.  :meth:`finalize` then
    runs the retroactive Layer-3 pass and Layer 5 against the complete
    frequency counts and returns the full result list in feed order —
    byte-identical to :meth:`FilterFunnel.classify_corpus` on the same
    email stream, however the summaries were produced (serially, per-day,
    or on worker processes).

    Only provisional summaries are retained; terminal ones are released
    as soon as their result is returned, which is what bounds the
    streaming mode's memory (spam dominates a typosquatting corpus).
    """

    def __init__(self, funnel: FilterFunnel) -> None:
        self.funnel = funnel
        self.results: List[Optional[FilterResult]] = []
        self._provisional: List[Tuple[int, MessageSummary]] = []
        self._finalized = False

    def __len__(self) -> int:
        return len(self.results)

    @property
    def pending_count(self) -> int:
        """Summaries awaiting the corpus-wide pass (memory high-water)."""
        return len(self._provisional)

    @property
    def provisional(self) -> Sequence[Tuple[int, MessageSummary]]:
        """``(result index, summary)`` of each summary awaiting the pass."""
        return self._provisional

    def feed(self, summary: MessageSummary) -> Optional[FilterResult]:
        """Fold in one summary; return its terminal result or None."""
        if self._finalized:
            raise RuntimeError("SummaryFold already finalized")
        funnel = self.funnel
        result = funnel._terminal_result(summary)
        if result is not None:
            self.results.append(result)
            return result
        funnel._bump_summary(summary)
        self._provisional.append((len(self.results), summary))
        self.results.append(None)
        return None

    def finalize(self) -> List[FilterResult]:
        """Run the retroactive and frequency passes; return all results."""
        if self._finalized:
            raise RuntimeError("SummaryFold already finalized")
        self._finalized = True
        funnel = self.funnel
        layers = funnel.enabled_layers
        results = self.results
        for index, summary in self._provisional:
            if 3 in layers:
                retro = funnel.collaborative.matches_summary(
                    summary.sender, summary.sender_lower, summary.bag)
                if retro is not None:
                    results[index] = FilterResult(
                        Verdict.SPAM, summary.kind, 3,
                        f"(retroactive) {retro}")
                    continue
            if 5 in layers:
                reason = funnel._frequency_reason_summary(summary)
                if reason is not None:
                    results[index] = FilterResult(
                        Verdict.FREQUENCY_FILTERED, summary.kind, 5, reason)
                    continue
            results[index] = FilterResult(Verdict.TRUE_TYPO, summary.kind,
                                          None, "passed all layers")
        self._provisional.clear()
        return results

    # -- durable state (the study checkpoint's stage-B payload) --------------

    def state_dict(self) -> Dict:
        """The fold's accumulated results and retained provisionals.

        Funnel state is captured separately (the funnel outlives the
        fold conceptually — it is the learned-filter state); here we
        snapshot only the per-run fold: emitted results in feed order
        (``None`` marks slots still provisional) and the provisional
        summaries awaiting the corpus-wide pass.  Both lists only grow
        before :meth:`finalize`, so both are journal
        :class:`~repro.util.journal.Appended` fields.
        """
        if self._finalized:
            raise RuntimeError("cannot checkpoint a finalized SummaryFold")
        return {
            "results": Appended(self.results, _encode_result),
            "provisional": Appended(self._provisional, _encode_provisional),
        }

    def restore_state(self, data: Dict) -> None:
        self.results = [FilterResult.from_canonical_dict(entry)
                        if entry is not None else None
                        for entry in data["results"]]
        self._provisional = [
            (index, MessageSummary.from_canonical_dict(entry))
            for index, entry in data["provisional"]]
        self._finalized = False


def _encode_result(result: Optional[FilterResult]) -> Optional[Dict]:
    return result.to_canonical_dict() if result is not None else None


def _encode_provisional(entry: Tuple[int, MessageSummary]) -> List:
    index, summary = entry
    return [index, summary.to_canonical_dict()]


# -- header helpers -----------------------------------------------------------

_RELAY_BY_RE = re.compile(r"by ([^\s(]+)")
_RELAY_FROM_RE = re.compile(r"from ([^\s(]+)")


def _relay_chain_hosts(email: TokenizedEmail) -> Set[str]:
    """Hosts named in the topmost Received header.

    With the Figure-1 two-hop topology the collection server's header
    reads ``from <vps-typo-domain> by collector...``; with a direct
    delivery it reads ``from <sender> by <vps-typo-domain>``.  Layer 1
    accepts the mail when *either* position names one of our domains —
    mail that reached the collector without passing a registered VPS
    names neither, and is spam by construction.
    """
    chain = email.metadata.received_chain
    if not chain:
        return set()
    # the collector stamps ``from X by Y (ip); t=<timestamp>`` — only the
    # timestamp tail varies between messages, and neither marker can occur
    # inside it, so host extraction memoises on the prefix before ';'
    prefix = chain[0].partition(";")[0]
    hosts = _RELAY_HOSTS_MEMO.table.get(prefix)
    if hosts is None:
        hosts = set()
        for pattern in (_RELAY_BY_RE, _RELAY_FROM_RE):
            match = pattern.search(prefix)
            if match:
                hosts.add(match.group(1).lower())
        hosts = frozenset(hosts)
        _RELAY_HOSTS_MEMO.put(prefix, hosts)
    else:
        _RELAY_HOSTS_MEMO.hits += 1
    return hosts


_SENDER_ADDRESS_RE = re.compile(r"[\w.+-]+@[\w.-]+")


def _sender_address(email: TokenizedEmail) -> Optional[str]:
    raw = email.metadata.envelope_from or email.metadata.from_field
    if not raw:
        return None
    # memoised per unique raw header value; the empty string stands in
    # for "no address found" so the table never stores None
    sender = _SENDER_MEMO.table.get(raw)
    if sender is None:
        match = _SENDER_ADDRESS_RE.search(raw)
        sender = match.group(0) if match else ""
        _SENDER_MEMO.put(raw, sender)
    else:
        _SENDER_MEMO.hits += 1
    return sender or None


def _sender_domain(email: TokenizedEmail) -> Optional[str]:
    sender = _sender_address(email)
    if sender is None:
        return None
    return sender.rpartition("@")[2].lower()


def _header_to_domain(email: TokenizedEmail) -> Optional[str]:
    raw = email.metadata.to_field
    if not raw:
        return None
    match = re.search(r"[\w.+-]+@([\w.-]+)", raw)
    return match.group(1).lower() if match else None


def _content_hash(body: str) -> str:
    digest = _CONTENT_HASH_MEMO.table.get(body)
    if digest is None:
        # trim and collapse whitespace runs; str.split() and re's \s
        # share one Unicode whitespace set
        normalised = " ".join(body.lower().split())
        digest = hashlib.sha1(normalised.encode("utf-8")).hexdigest()
        _CONTENT_HASH_MEMO.put(body, digest)
    else:
        _CONTENT_HASH_MEMO.hits += 1
    return digest
