"""Sensitive-information detection and scrubbing (paper Fig. 2 + Table 2).

The study's IRB protocol demanded that personal identifiers be removed
*before* storage: identifiers are replaced by salted hashes wrapped in the
paper's ``*_|R|_*`` sentinel, and, as a final safety net, every remaining
digit in the text is zeroed (the paper's filtered example shows "Book us 0
rooms" for "Book us 3 rooms").

Detectors cover the HIPAA identifier list as instantiated in Table 2:
credit card numbers (Luhn-validated, with brand classification — Figure 6
breaks card findings down by brand), Social Security numbers, Employer
Identification numbers, passwords, Vehicle Identification numbers,
usernames, ZIP codes, generic identification numbers, email addresses,
phone numbers, and dates.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Pattern, Sequence, Tuple

from repro.util.textcache import BoundedMemo

__all__ = [
    "SensitiveKind",
    "SensitiveMatch",
    "ScrubResult",
    "SensitiveScrubber",
    "luhn_valid",
    "card_brand",
    "SENTINEL",
]

SENTINEL = "*_|R|_*"

#: Identifier kinds, in match-priority order (earlier wins on overlap).
SENSITIVE_KINDS = (
    "creditcard",
    "ssn",
    "ein",
    "vin",
    "phone",
    "date",
    "email",
    "zip",
    "password",
    "username",
    "idnumber",
)

SensitiveKind = str


def luhn_valid(digits: str) -> bool:
    """Luhn checksum over a string of decimal digits."""
    if not digits.isdigit() or len(digits) < 12:
        return False
    total = 0
    for index, char in enumerate(reversed(digits)):
        value = int(char)
        if index % 2 == 1:
            value *= 2
            if value > 9:
                value -= 9
        total += value
    return total % 10 == 0


def card_brand(digits: str) -> Optional[str]:
    """Classify a PAN into its network by IIN prefix (Figure 6 labels)."""
    if digits.startswith("4") and len(digits) in (13, 16, 19):
        return "visa"
    if (digits[:2] in ("51", "52", "53", "54", "55")
            or (len(digits) >= 4 and "2221" <= digits[:4] <= "2720")) \
            and len(digits) == 16:
        return "mastercard"
    if digits[:2] in ("34", "37") and len(digits) == 15:
        return "amex"
    if len(digits) == 16 and digits[:4].isdigit() and 3528 <= int(digits[:4]) <= 3589:
        return "jcb"
    if (digits[:3] in ("300", "301", "302", "303", "304", "305")
            or digits[:2] in ("36", "38")) and len(digits) in (14, 16):
        return "dinersclub"
    if digits.startswith("6011") or digits[:2] == "65":
        return "discover"
    return None


@dataclass(frozen=True)
class SensitiveMatch:
    """One identifier found in a text."""

    kind: SensitiveKind
    text: str
    start: int
    end: int
    detail: str = ""  # card brand for creditcard matches

    @property
    def figure6_label(self) -> str:
        """The label Figure 6 groups by: card brand, else the kind."""
        if self.kind == "creditcard" and self.detail:
            return self.detail
        return self.kind


@dataclass(frozen=True)
class ScrubResult:
    """Output of scrubbing: sanitised text plus what was found."""

    text: str
    matches: Tuple[SensitiveMatch, ...]

    def kinds_found(self) -> List[str]:
        """Sorted distinct identifier kinds found."""
        return sorted({m.kind for m in self.matches})

    def count_by_label(self) -> Dict[str, int]:
        """Occurrences per Figure-6 label (card brand or kind)."""
        counts: Dict[str, int] = {}
        for match in self.matches:
            label = match.figure6_label
            counts[label] = counts.get(label, 0) + 1
        return counts


# --- detector implementation ------------------------------------------------

#: corpus-wide scrub cache, keyed by (salt, text); see SensitiveScrubber.scrub
_SCRUB_MEMO = BoundedMemo("sensitive.scrub")

_HAS_DIGIT_RE = re.compile(r"\d")
_CARD_RE = re.compile(r"(?<![\d-])(?:\d[ -]?){12,18}\d(?![\d-])")
_SSN_RE = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
_SSN_CONTEXT_RE = re.compile(
    r"\b(?:ssn|social security(?: number| no\.?)?)\s*[:#]?\s*(\d{9})\b",
    re.IGNORECASE)
_EIN_RE = re.compile(r"\b\d{2}-\d{7}\b")
_VIN_RE = re.compile(
    r"\b(?=[A-HJ-NPR-Z0-9]{17}\b)(?=[A-HJ-NPR-Z0-9]*\d)(?=[A-HJ-NPR-Z0-9]*[A-HJ-NPR-Z])"
    r"[A-HJ-NPR-Z0-9]{17}\b")
_PHONE_RE = re.compile(
    r"(?<![\d-])(?:\+?1[ .-]?)?(?:\(\d{3}\)|\d{3})[ .-]\d{3}[ .-]\d{4}(?![\d-])")
_EMAIL_RE = re.compile(r"\b[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}\b")
_ZIP_RE = re.compile(
    r"(?:\b[A-Z]{2}[,]?\s+(\d{5}(?:-\d{4})?)\b)|(?:\bzip(?:\s*code)?\s*[:#]?\s*(\d{5}(?:-\d{4})?)\b)",
    re.IGNORECASE)
#: the keywords each labelled-identifier pattern starts with; they also
#: drive the keyword gate in :meth:`SensitiveScrubber.find`
_PASSWORD_KEYWORDS = ("password", "passwd", "pwd", "passcode")
_USERNAME_KEYWORDS = ("username", "user name", "user id", "userid", "login")
_IDNUMBER_KEYWORDS = (
    "id number", "identification number", "member id", "account number",
    "case id", "case number", "reference number", "record number",
    "policy number")
_KEYWORDS = _PASSWORD_KEYWORDS + _USERNAME_KEYWORDS + _IDNUMBER_KEYWORDS
_PASSWORD_RE = re.compile(
    rf"\b(?:{'|'.join(_PASSWORD_KEYWORDS)})\s*(?:is|[:=])?\s+(\S+)",
    re.IGNORECASE)
_USERNAME_RE = re.compile(
    rf"\b(?:{'|'.join(_USERNAME_KEYWORDS)})\s*(?:is|[:=])?\s+(\S+)",
    re.IGNORECASE)
_IDNUMBER_RE = re.compile(
    rf"\b(?:{'|'.join(_IDNUMBER_KEYWORDS)})\s*[:#]?\s*([A-Za-z0-9-]{{4,20}})\b",
    re.IGNORECASE)
_KEYWORD_RE = re.compile(rf"\b(?:{'|'.join(_KEYWORDS)})", re.IGNORECASE)
_DATE_RES = (
    re.compile(r"\b\d{4}-\d{2}-\d{2}\b"),
    re.compile(r"\b\d{1,2}/\d{1,2}/\d{2,4}\b"),
    re.compile(
        r"\b(?:Jan(?:uary)?|Feb(?:ruary)?|Mar(?:ch)?|Apr(?:il)?|May|Jun(?:e)?|"
        r"Jul(?:y)?|Aug(?:ust)?|Sep(?:tember)?|Oct(?:ober)?|Nov(?:ember)?|"
        r"Dec(?:ember)?)\.? \d{1,2},? \d{4}\b"),
    re.compile(r"\b[Ee]xp\.? ?\d{2}/\d{2,4}\b"),
)


class SensitiveScrubber:
    """Finds and removes sensitive identifiers from text.

    ``salt`` keys the replacement hashes so equal identifiers map to equal
    tokens within a study but tokens are not invertible across studies.
    """

    def __init__(self, salt: str = "repro-study-salt") -> None:
        self._salt = salt

    # -- detection ----------------------------------------------------------

    def find(self, text: str) -> List[SensitiveMatch]:
        """All identifier matches, overlaps resolved by kind priority."""
        candidates: List[SensitiveMatch] = []
        # every numeric-identifier pattern requires at least one digit, so
        # one digit scan gates eleven regex passes for digit-free bodies
        has_digit = _HAS_DIGIT_RE.search(text) is not None
        if has_digit:
            candidates.extend(self._find_cards(text))
            candidates.extend(_simple(text, _SSN_RE, "ssn"))
            candidates.extend(_group(text, _SSN_CONTEXT_RE, "ssn", group=1))
            candidates.extend(_simple(text, _EIN_RE, "ein"))
            candidates.extend(_simple(text, _VIN_RE, "vin"))
            candidates.extend(_simple(text, _PHONE_RE, "phone"))
            for pattern in _DATE_RES:
                candidates.extend(_simple(text, pattern, "date"))
        if "@" in text:
            candidates.extend(_simple(text, _EMAIL_RE, "email"))
        if has_digit:
            candidates.extend(_zip_matches(text))
        if _has_keyword(text):
            candidates.extend(_group(text, _PASSWORD_RE, "password", group=1))
            candidates.extend(_group(text, _USERNAME_RE, "username", group=1))
            candidates.extend(_group(text, _IDNUMBER_RE, "idnumber", group=1))
        if not candidates:
            return []
        return _resolve_overlaps(candidates)

    def _find_cards(self, text: str) -> List[SensitiveMatch]:
        out: List[SensitiveMatch] = []
        for match in _CARD_RE.finditer(text):
            digits = re.sub(r"[ -]", "", match.group())
            if not 13 <= len(digits) <= 19:
                continue
            if not luhn_valid(digits):
                continue
            brand = card_brand(digits) or "unknown-card"
            out.append(SensitiveMatch("creditcard", match.group(),
                                      match.start(), match.end(), brand))
        return out

    # -- scrubbing -------------------------------------------------------------

    def scrub(self, text: str) -> ScrubResult:
        """Replace identifiers with sentinel tokens, then zero all digits.

        Pure per ``(salt, text)`` and :class:`ScrubResult` is frozen, so
        results are shared through a corpus-wide memo — spam campaigns
        reuse bodies heavily, and scrubbing is the pipeline's single most
        expensive per-message step.
        """
        key = (self._salt, text)
        result = _SCRUB_MEMO.table.get(key)
        if result is not None:
            _SCRUB_MEMO.hits += 1
            return result
        result = self._scrub_uncached(text)
        _SCRUB_MEMO.put(key, result)
        return result

    def _scrub_uncached(self, text: str) -> ScrubResult:
        matches = self.find(text)
        if not matches:
            if _HAS_DIGIT_RE.search(text) is None:
                return ScrubResult(text=text, matches=())
            return ScrubResult(text=_HAS_DIGIT_RE.sub("0", text), matches=())
        pieces: List[str] = []
        cursor = 0
        for match in matches:
            pieces.append(text[cursor:match.start])
            pieces.append(self._replacement(match))
            cursor = match.end
        pieces.append(text[cursor:])
        sanitised = "".join(pieces)
        sanitised = _HAS_DIGIT_RE.sub("0", sanitised)
        return ScrubResult(text=sanitised, matches=tuple(matches))

    def _replacement(self, match: SensitiveMatch) -> str:
        token = hashlib.sha256(
            (self._salt + match.text).encode("utf-8")).hexdigest()[:10]
        label = match.figure6_label
        return f"{SENTINEL}{label}*{token}{SENTINEL}"

    def salted_hash(self, value: str) -> str:
        """The stable pseudonym for one identifier value."""
        return hashlib.sha256((self._salt + value).encode("utf-8")).hexdigest()[:10]


# -- helpers --------------------------------------------------------------------


def _has_keyword(text: str) -> bool:
    """Whether a keyword of the password/username/idnumber patterns occurs.

    On ASCII text ``str.lower`` folds case exactly as ``re.IGNORECASE``
    does, so substring tests suffice; other text can match through
    Unicode case folds (``ſ`` for ``s``, ``ı`` for ``i``) and takes the
    case-insensitive regex.
    """
    if text.isascii():
        lowered = text.lower()
        return any(keyword in lowered for keyword in _KEYWORDS)
    return _KEYWORD_RE.search(text) is not None


def _simple(text: str, pattern: Pattern, kind: str) -> List[SensitiveMatch]:
    return [SensitiveMatch(kind, m.group(), m.start(), m.end())
            for m in pattern.finditer(text)]


def _group(text: str, pattern: Pattern, kind: str,
           group: int) -> List[SensitiveMatch]:
    out = []
    for m in pattern.finditer(text):
        if m.group(group) is None:
            continue
        out.append(SensitiveMatch(kind, m.group(group),
                                  m.start(group), m.end(group)))
    return out


def _zip_matches(text: str) -> List[SensitiveMatch]:
    out = []
    for m in _ZIP_RE.finditer(text):
        for group_index in (1, 2):
            if m.group(group_index):
                out.append(SensitiveMatch("zip", m.group(group_index),
                                          m.start(group_index),
                                          m.end(group_index)))
    return out


def _resolve_overlaps(candidates: List[SensitiveMatch]) -> List[SensitiveMatch]:
    """Keep at most one match per text span, preferring higher-priority kinds."""
    priority = {kind: i for i, kind in enumerate(SENSITIVE_KINDS)}
    ordered = sorted(candidates,
                     key=lambda m: (priority.get(m.kind, 99), m.start, -(m.end - m.start)))
    kept: List[SensitiveMatch] = []
    for candidate in ordered:
        if any(not (candidate.end <= k.start or candidate.start >= k.end)
               for k in kept):
            continue
        kept.append(candidate)
    kept.sort(key=lambda m: m.start)
    return kept
