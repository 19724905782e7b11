"""A SpamAssassin-style rule-based spam scorer (funnel Layer 2).

The real study ran Apache SpamAssassin in local mode with default
thresholds.  This module reproduces its architecture: a set of named
rules, each contributing a score when its predicate fires, with a message
classified as spam when the total crosses the threshold (SpamAssassin's
default 5.0).  Rule scores are hand-set the way SA's are, and the
evaluation in Table 3 measures the resulting precision/recall on four
labelled corpora — high precision, mediocre recall, which is exactly why
the paper needed three more filtering layers.

Performance model: every text-derived signal a rule needs is a pure
function of either the body or the subject, so the signals are computed
once per *unique* string and memoised in bounded content-keyed tables
(:mod:`repro.util.textcache`).  Campaign spam repeats bodies verbatim,
which turns the dominant cost of Layer 2 — phrase scans over the lowered
text — into dict hits.  This replaces the old module-level one-slot
``_LAST_TEXT`` memo, whose global mutable state was shared across all
scorer instances and broke under interleaved funnels; the only remaining
per-email memo is a one-slot cache *on each scorer instance* (see
:class:`SpamAssassinScorer`).  On a miss, the money regex, whose
alternatives both need a digit, runs only on bodies that hold one (about
one unique body in eight in a study); the other bodies skip its search.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.pipeline.tokenizer import TokenizedEmail
from repro.util.textcache import BoundedMemo

__all__ = ["SpamRule", "SpamScore", "SpamAssassinScorer", "DEFAULT_THRESHOLD"]

DEFAULT_THRESHOLD = 5.0

RulePredicate = Callable[[TokenizedEmail], bool]


@dataclass(frozen=True)
class SpamRule:
    name: str
    score: float
    predicate: RulePredicate
    description: str = ""


@dataclass(frozen=True)
class SpamScore:
    total: float
    fired_rules: Tuple[str, ...]
    threshold: float

    @property
    def is_spam(self) -> bool:
        return self.total >= self.threshold


_URL_RE = re.compile(r"https?://[^\s]+", re.IGNORECASE)
_MONEY_RE = re.compile(r"[$€£]\s?\d[\d,]*(?:\.\d{2})?|\b\d+ ?(?:million|billion) (?:dollars|usd)\b",
                       re.IGNORECASE)
_SHOUTY_RE = re.compile(r"[A-Z]{4,}")
#: both alternatives of _MONEY_RE need a digit, and most bodies hold
#: none: this C-speed scan skips the money search for them
_DIGIT_RE = re.compile(r"\d")

#: Phrases harvested from classic SA rule sets; the workload generators
#: plant a configurable subset of these in synthetic spam.
_SPAM_PHRASES = (
    "viagra", "cialis", "lottery", "you have won", "winner", "claim your",
    "nigerian prince", "wire transfer", "100% free", "risk free",
    "act now", "limited time offer", "click here", "order now",
    "cheap meds", "online pharmacy", "casino", "work from home",
    "make money fast", "weight loss", "miracle cure", "dear friend",
    "urgent response", "beneficiary", "inheritance", "confidential business",
)

_PHISH_PHRASES = (
    "verify your account", "suspended account", "confirm your password",
    "unusual activity", "update your billing",
)


# -- content-keyed signal extraction ------------------------------------------
#
# No phrase contains a newline, so scanning the old combined
# ``f"{subject}\n{body}".lower()`` is equivalent to scanning the lowered
# subject and body separately — and splitting lets both halves be cached
# independently (bodies repeat across a campaign while subjects vary, and
# vice versa for reflection streams).  Each unique string is lowered at
# most once, here, for all of Layers 2/3/5.


class _BodyFeatures:
    """Every body-derived rule signal, computed once per unique body."""

    __slots__ = ("spam_phrases", "phish", "excl_burst", "many_urls",
                 "url_shortener", "money_talk", "html_heavy",
                 "tiny_body_link")

    def __init__(self, body: str) -> None:
        lowered = body.lower()
        self.spam_phrases: FrozenSet[str] = frozenset(
            p for p in _SPAM_PHRASES if p in lowered)
        self.phish = any(p in lowered for p in _PHISH_PHRASES)
        self.excl_burst = "!!!" in body
        self.many_urls = len(_URL_RE.findall(body)) >= 3
        self.url_shortener = any(
            host in lowered for host in ("bit.ly/", "tinyurl.com/", "goo.gl/"))
        self.money_talk = (_DIGIT_RE.search(body) is not None
                           and _MONEY_RE.search(body) is not None)
        if len(body) < 40:
            self.html_heavy = False
        else:
            tags = body.count("<")
            self.html_heavy = tags > 5 and tags * 10 > len(body.split())
        self.tiny_body_link = len(body) < 60 and bool(_URL_RE.search(body))


class _SubjectFeatures:
    """Every subject-derived rule signal, computed once per unique subject."""

    __slots__ = ("spam_phrases", "phish", "excl_burst", "shouty", "missing")

    def __init__(self, subject: str) -> None:
        lowered = subject.lower()
        self.spam_phrases: FrozenSet[str] = frozenset(
            p for p in _SPAM_PHRASES if p in lowered)
        self.phish = any(p in lowered for p in _PHISH_PHRASES)
        self.excl_burst = "!!!" in subject
        letters = [c for c in subject if c.isalpha()]
        if len(letters) < 6:
            self.shouty = False
        else:
            upper = sum(c.isupper() for c in letters)
            self.shouty = upper / len(letters) > 0.7
        self.missing = subject.strip() == ""


_BODY_FEATURES = BoundedMemo("spamassassin.body_features")
_SUBJECT_FEATURES = BoundedMemo("spamassassin.subject_features")


def _body_features(body: str) -> _BodyFeatures:
    features = _BODY_FEATURES.table.get(body)
    if features is None:
        features = _BodyFeatures(body)
        _BODY_FEATURES.put(body, features)
    else:
        _BODY_FEATURES.hits += 1
    return features


def _subject_features(subject: str) -> _SubjectFeatures:
    features = _SUBJECT_FEATURES.table.get(subject)
    if features is None:
        features = _SubjectFeatures(subject)
        _SUBJECT_FEATURES.put(subject, features)
    else:
        _SUBJECT_FEATURES.hits += 1
    return features


def _spam_phrase_count(email: TokenizedEmail) -> int:
    body_hits = _body_features(email.body).spam_phrases
    subject_hits = _subject_features(email.metadata.subject).spam_phrases
    if not subject_hits:
        return len(body_hits)
    if not body_hits:
        return len(subject_hits)
    return len(body_hits | subject_hits)


def _rule_spam_phrases(email: TokenizedEmail) -> bool:
    return _spam_phrase_count(email) >= 1


def _rule_many_spam_phrases(email: TokenizedEmail) -> bool:
    return _spam_phrase_count(email) >= 3


def _rule_phishing_phrases(email: TokenizedEmail) -> bool:
    return (_body_features(email.body).phish
            or _subject_features(email.metadata.subject).phish)


def _rule_shouty_subject(email: TokenizedEmail) -> bool:
    return _subject_features(email.metadata.subject).shouty


def _rule_exclamation_burst(email: TokenizedEmail) -> bool:
    return (_subject_features(email.metadata.subject).excl_burst
            or _body_features(email.body).excl_burst)


def _rule_many_urls(email: TokenizedEmail) -> bool:
    return _body_features(email.body).many_urls


def _rule_url_shortener(email: TokenizedEmail) -> bool:
    return _body_features(email.body).url_shortener


def _rule_money_talk(email: TokenizedEmail) -> bool:
    return _body_features(email.body).money_talk


def _rule_html_only_body(email: TokenizedEmail) -> bool:
    return _body_features(email.body).html_heavy


def _rule_suspicious_sender_tld(email: TokenizedEmail) -> bool:
    sender = (email.metadata.from_field or "").lower()
    return sender.rstrip(">").endswith((".top", ".click", ".xyz", ".loan", ".win"))


def _rule_numeric_sender(email: TokenizedEmail) -> bool:
    sender = (email.metadata.from_field or "").split("@")[0].strip("<")
    digits = sum(c.isdigit() for c in sender)
    return len(sender) > 0 and digits >= max(4, len(sender) // 2)

def _rule_missing_subject(email: TokenizedEmail) -> bool:
    return _subject_features(email.metadata.subject).missing


def _rule_executable_attachment(email: TokenizedEmail) -> bool:
    risky = {"exe", "scr", "js", "vbs", "bat", "com", "jar"}
    return any(a.extension in risky for a in email.attachments)


def _rule_tiny_body_with_link(email: TokenizedEmail) -> bool:
    return _body_features(email.body).tiny_body_link


def default_rules() -> List[SpamRule]:
    """The default rule set, scored so one strong signal is not enough
    (mirroring SA, where spam usually trips several rules)."""
    return [
        SpamRule("SPAM_PHRASE", 2.5, _rule_spam_phrases,
                 "contains a known spam phrase"),
        SpamRule("SPAM_PHRASE_MANY", 2.5, _rule_many_spam_phrases,
                 "contains three or more spam phrases"),
        SpamRule("PHISH_PHRASE", 2.8, _rule_phishing_phrases,
                 "contains account-phishing language"),
        SpamRule("SUBJ_ALL_CAPS", 1.5, _rule_shouty_subject,
                 "subject is mostly upper-case"),
        SpamRule("EXCL_BURST", 1.0, _rule_exclamation_burst,
                 "multiple exclamation marks"),
        SpamRule("MANY_URLS", 1.5, _rule_many_urls, "three or more URLs"),
        SpamRule("URL_SHORTENER", 1.2, _rule_url_shortener,
                 "link through a URL shortener"),
        SpamRule("MONEY_TALK", 1.5, _rule_money_talk,
                 "mentions money amounts"),
        SpamRule("HTML_HEAVY", 1.2, _rule_html_only_body,
                 "body is mostly HTML markup"),
        SpamRule("BAD_SENDER_TLD", 1.8, _rule_suspicious_sender_tld,
                 "sender in a spam-heavy TLD"),
        SpamRule("NUMERIC_SENDER", 1.0, _rule_numeric_sender,
                 "sender local part is mostly digits"),
        SpamRule("NO_SUBJECT", 0.8, _rule_missing_subject, "empty subject"),
        SpamRule("EXE_ATTACH", 3.0, _rule_executable_attachment,
                 "executable attachment"),
        SpamRule("TINY_BODY_LINK", 1.3, _rule_tiny_body_with_link,
                 "near-empty body with a link"),
    ]


#: SpamScore per unique (from, subject, body, extensions) — the complete
#: input surface of the *default* rule set; custom rule lists may read
#: anything, so only default-rule scorers use this table.  A hit from a
#: scorer with a different threshold is rebuilt against that threshold.
_SCORE_MEMO = BoundedMemo("spamassassin.score")


class SpamAssassinScorer:
    """Score emails against a rule set with a spam threshold.

    Each instance keeps a one-slot memo of its last ``(email, threshold)``
    and the resulting :class:`SpamScore` — callers like the funnel score
    the same tokenised email from more than one code path in a row.  The
    memo is *per instance* (not module-level) so two scorers with
    different thresholds or rule sets interleaving over the same emails
    can never serve each other stale scores.

    Default-rule scorers additionally share a content-keyed table: every
    default predicate is a pure function of the From header, subject,
    body, and attachment extensions, so equal inputs score equally no
    matter which message carries them — campaign spam repeats all four,
    which is what makes the classify stage's 3x throughput bar reachable
    on one core.
    """

    def __init__(self, rules: Optional[List[SpamRule]] = None,
                 threshold: float = DEFAULT_THRESHOLD) -> None:
        self.rules = rules if rules is not None else default_rules()
        self.threshold = threshold
        #: content-keyed memoisation is only sound for the default rules
        self._content_keyed = rules is None
        self._last_email: Optional[TokenizedEmail] = None
        self._last_score: Optional[SpamScore] = None

    def score(self, email: TokenizedEmail) -> SpamScore:
        """Total score and fired rules for one email."""
        last = self._last_score
        if (email is self._last_email and last is not None
                and last.threshold == self.threshold):
            return last
        key = None
        if self._content_keyed:
            metadata = email.metadata
            key = (metadata.from_field, metadata.subject, email.body,
                   tuple(a.extension for a in email.attachments))
            cached = _SCORE_MEMO.table.get(key)
            if cached is not None:
                _SCORE_MEMO.hits += 1
                if cached.threshold != self.threshold:
                    # another scorer instance cached it — same total and
                    # fired rules, but rebuild against our threshold
                    cached = SpamScore(total=cached.total,
                                       fired_rules=cached.fired_rules,
                                       threshold=self.threshold)
                self._last_email = email
                self._last_score = cached
                return cached
        fired = []
        total = 0.0
        for rule in self.rules:
            if rule.predicate(email):
                fired.append(rule.name)
                total += rule.score
        result = SpamScore(total=total, fired_rules=tuple(fired),
                           threshold=self.threshold)
        if key is not None:
            _SCORE_MEMO.put(key, result)
        self._last_email = email
        self._last_score = result
        return result

    def is_spam(self, email: TokenizedEmail) -> bool:
        """Whether the email's score crosses the spam threshold."""
        return self.score(email).is_spam
