"""Generation of typo domains ("gtypos", paper Sections 3 and 5.1).

Given a target domain, enumerate every DL-1 variation of its registrable
label — additions, deletions, substitutions, and adjacent transpositions —
optionally restricted to fat-finger (QWERTY-adjacent) mistakes, and
annotate each candidate with the features the paper's regression uses:
edit type, edit position, fat-finger distance, and visual distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from repro.core.distances import (
    classify_edit,
    fat_finger_for_edit,
    visual_distance_for_edit,
)
from repro.core.keyboard import qwerty_adjacency

__all__ = [
    "TypoCandidate",
    "TypoGenerator",
    "split_domain",
    "public_suffix",
    "registrable_domain",
    "MULTI_LABEL_SUFFIXES",
    "DOMAIN_ALPHABET",
    "EditOp",
    "enumerate_edit_ops",
    "apply_edit",
    "clear_typogen_cache",
    "typogen_cache_stats",
]

#: Characters legal in a registrable DNS label (LDH rule, no leading/trailing
#: hyphen — enforced by the generator).
DOMAIN_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"

_DOMAIN_ALPHABET_SET = frozenset(DOMAIN_ALPHABET)

#: Multi-label public suffixes the harness recognises (the ccTLD slice of
#: the Public Suffix List that actually shows up in mail-host names).  A
#: registrable domain is one label below its public suffix, so
#: ``mx1.foo.co.uk`` groups under ``foo.co.uk``, not ``co.uk``.
MULTI_LABEL_SUFFIXES = frozenset({
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
    "com.au", "net.au", "org.au", "co.nz", "org.nz", "net.nz",
    "co.jp", "ne.jp", "or.jp", "ac.jp",
    "com.br", "net.br", "org.br", "com.cn", "net.cn", "com.mx",
    "co.in", "net.in", "co.kr", "com.sg", "com.tr", "co.za",
    "com.ar", "com.hk", "com.tw", "co.th", "com.my", "co.id",
})


def public_suffix(domain: str) -> str:
    """The public suffix of ``domain``: multi-label where recognised."""
    labels = domain.lower().rstrip(".").split(".")
    if len(labels) >= 3 and ".".join(labels[-2:]) in MULTI_LABEL_SUFFIXES:
        return ".".join(labels[-2:])
    return labels[-1]


def registrable_domain(host: str) -> str:
    """The registrable (suffix-plus-one) domain of a host name.

    ``mx1.foo.co.uk`` -> ``foo.co.uk``; ``mx.gmail.com`` -> ``gmail.com``;
    a bare registrable name (or a bare suffix) comes back unchanged.
    """
    host = host.lower().rstrip(".")
    labels = host.split(".")
    suffix = public_suffix(host)
    keep = suffix.count(".") + 2  # suffix labels plus the registrable label
    if len(labels) <= keep:
        return host
    return ".".join(labels[-keep:])


def split_domain(domain: str) -> tuple:
    """Split ``label.suffix`` into (label, suffix); raises for bare labels.

    The suffix is the public suffix (``co.uk``-style multi-label suffixes
    included), so the label is always the registrable label.
    """
    domain = domain.lower().rstrip(".")
    if "." not in domain:
        raise ValueError(f"domain {domain!r} has no TLD")
    suffix = public_suffix(domain)
    label = domain[:-(len(suffix) + 1)]
    if not label or not suffix:
        raise ValueError(f"malformed domain {domain!r}")
    return label, suffix


# -- candidate memoization ----------------------------------------------------
#
# Candidate enumeration is a pure function of (alphabet, fat_finger_only,
# target): the study harness regenerates the same ~20 target labels for
# every model calibration and every sweep seed.  The cache is shared across
# generator instances, keyed by the generator's configuration, explicitly
# size-bounded, and seed-independent.  ``TypoCandidate`` is frozen, so the
# cached tuples are safe to share; :meth:`TypoGenerator.generate` hands out
# a fresh list each call because callers sort the result in place.

_CANDIDATE_CACHE: dict = {}
_CANDIDATE_CACHE_MAX = 4096
_CANDIDATE_CACHE_HITS = 0
_CANDIDATE_CACHE_MISSES = 0


def clear_typogen_cache() -> None:
    """Drop every memoized candidate list and zero the hit/miss counters.

    Matches :func:`repro.core.distances.clear_distance_caches`: stats
    describe the run since the last clear, not the process lifetime.
    """
    global _CANDIDATE_CACHE_HITS, _CANDIDATE_CACHE_MISSES
    _CANDIDATE_CACHE.clear()
    _CANDIDATE_CACHE_HITS = 0
    _CANDIDATE_CACHE_MISSES = 0


def typogen_cache_stats() -> dict:
    """``{"hits", "misses", "size"}`` for the shared candidate cache."""
    return {"hits": _CANDIDATE_CACHE_HITS,
            "misses": _CANDIDATE_CACHE_MISSES,
            "size": len(_CANDIDATE_CACHE)}


def _valid_label(label: str) -> bool:
    if not label or len(label) > 63:
        return False
    if label[0] == "-" or label[-1] == "-":
        return False
    return all(ch in _DOMAIN_ALPHABET_SET for ch in label)


# -- the DL-1 edit-operation kernel ------------------------------------------
#
# One DL-1 candidate is fully described by ``(op, index, char)``; the kernel
# enumerates these tuples directly — deduplicated (equal-character runs
# collapse deletions and insertions) and validity-filtered (LDH rule,
# length bounds) — without building a typo string or re-classifying the
# edit.  The paper-scale ecosystem scan walks ~500 of these per ranked
# target and registers almost none of them, so candidate *strings* are only
# materialized for the few that matter.  ``TypoGenerator`` itself is built
# on the same kernel, which keeps the two enumeration orders identical by
# construction (the parity tests compare against a naive reference).

EditOp = tuple  # (op: str, index: int, char: str) — char "" for del/transposition


def apply_edit(label: str, op: str, index: int, char: str = "") -> str:
    """The typo label produced by one DL-1 edit of ``label``."""
    if op == "deletion":
        return label[:index] + label[index + 1:]
    if op == "transposition":
        return (label[:index] + label[index + 1] + label[index]
                + label[index + 2:])
    if op == "substitution":
        return label[:index] + char + label[index + 1:]
    if op == "addition":
        return label[:index] + char + label[index:]
    raise ValueError(f"unknown edit operation {op!r}")


def enumerate_edit_ops(label: str, alphabet: str = DOMAIN_ALPHABET,
                       fat_finger_only: bool = False) -> list:
    """All distinct, valid DL-1 edit ops of ``label``, in generation order.

    Order matches the classic seen-set enumeration: deletions, adjacent
    transpositions, substitutions (position-major, alphabet order), then
    additions — with duplicates (equal-char runs) and labels violating the
    LDH/length rules skipped.  Each entry is ``(op, index, char)``.
    """
    length = len(label)
    if not all(ch in _DOMAIN_ALPHABET_SET for ch in label):
        return _enumerate_edit_ops_strict(label, alphabet, fat_finger_only)
    out: list = []
    append = out.append

    # deletions: dedup to the first index of an equal-character run; the
    # result keeps both end characters unless an end character is removed
    if 2 <= length <= 64:
        for i in range(length):
            if i > 0 and label[i] == label[i - 1]:
                continue  # same string as deleting the previous position
            if i == 0 and label[1] == "-":
                continue
            if i == length - 1 and label[length - 2] == "-":
                continue
            append(("deletion", i, ""))

    if length <= 63:
        # transpositions of distinct neighbours
        for i in range(length - 1):
            if label[i] == label[i + 1]:
                continue
            if i == 0 and label[1] == "-":
                continue
            if i + 1 == length - 1 and label[i] == "-":
                continue
            append(("transposition", i, ""))

        # substitutions
        for i in range(length):
            original = label[i]
            boundary = i == 0 or i == length - 1
            for ch in _substitution_choices(original, alphabet,
                                            fat_finger_only):
                if ch == original:
                    continue
                if boundary and ch == "-":
                    continue
                append(("substitution", i, ch))

    # additions: dedup inserting ``ch`` into a run of ``ch`` to the first slot
    if length + 1 <= 63:
        for i in range(length + 1):
            choices = _insertion_choices(label, i, alphabet, fat_finger_only)
            for ch in choices:
                if i > 0 and label[i - 1] == ch:
                    continue  # same string as inserting one slot earlier
                if (i == 0 or i == length) and ch == "-":
                    continue
                append(("addition", i, ch))
    return out


def _enumerate_edit_ops_strict(label: str, alphabet: str,
                               fat_finger_only: bool) -> list:
    """Fallback for labels with characters outside the LDH alphabet.

    Builds each candidate string and applies the full validity check, so
    edits that *retain* an illegal character are filtered exactly as the
    seen-set enumeration did.
    """
    out: list = []
    seen = {label}
    for i in range(len(label)):
        _strict_add(out, seen, label, "deletion", i, "")
    for i in range(len(label) - 1):
        if label[i] != label[i + 1]:
            _strict_add(out, seen, label, "transposition", i, "")
    for i in range(len(label)):
        for ch in _substitution_choices(label[i], alphabet, fat_finger_only):
            if ch != label[i]:
                _strict_add(out, seen, label, "substitution", i, ch)
    for i in range(len(label) + 1):
        for ch in _insertion_choices(label, i, alphabet, fat_finger_only):
            _strict_add(out, seen, label, "addition", i, ch)
    return out


def _strict_add(out: list, seen: set, label: str, op: str, index: int,
                char: str) -> None:
    typo = apply_edit(label, op, index, char)
    if typo in seen or not _valid_label(typo):
        return
    seen.add(typo)
    out.append((op, index, char))


def _substitution_choices(original: str, alphabet: str,
                          fat_finger_only: bool):
    if fat_finger_only:
        return sorted(qwerty_adjacency(original) & set(alphabet))
    return alphabet


def _insertion_choices(label: str, index: int, alphabet: str,
                       fat_finger_only: bool):
    if not fat_finger_only:
        return alphabet
    candidates: Set[str] = set()
    if index > 0:
        candidates.add(label[index - 1])
        candidates.update(qwerty_adjacency(label[index - 1]))
    if index < len(label):
        candidates.add(label[index])
        candidates.update(qwerty_adjacency(label[index]))
    return sorted(candidates & set(alphabet))


@dataclass(frozen=True)
class TypoCandidate:
    """A generated typo domain with its regression features."""

    domain: str
    target: str
    edit_type: str           # addition | deletion | substitution | transposition
    edit_index: int          # index into the target label
    fat_finger: int          # FF distance (1 when QWERTY-adjacent mistake)
    visual: float            # heuristic visual distance

    @property
    def is_fat_finger(self) -> bool:
        return self.fat_finger == 1

    @property
    def normalized_visual(self) -> float:
        """Visual distance normalised by target label length (paper §6.2)."""
        label, _ = split_domain(self.target)
        return self.visual / max(1, len(label))


class TypoGenerator:
    """Enumerate DL-1 typo candidates of target domains.

    Parameters
    ----------
    alphabet:
        Characters considered for additions/substitutions.
    fat_finger_only:
        When True, only mistakes reachable by a QWERTY slip are generated
        (adjacent-key substitutions/insertions, plus all deletions and
        transpositions, which require no specific geometry).  This mirrors
        the paper's registration strategy ("most of the typo domains we
        generated have a fat-finger distance of one").
    """

    def __init__(self, alphabet: str = DOMAIN_ALPHABET,
                 fat_finger_only: bool = False) -> None:
        self.alphabet = alphabet
        self.fat_finger_only = fat_finger_only

    # -- enumeration -------------------------------------------------------

    def generate(self, target: str) -> List[TypoCandidate]:
        """All distinct DL-1 typo candidates of ``target`` (same TLD)."""
        global _CANDIDATE_CACHE_HITS, _CANDIDATE_CACHE_MISSES
        key = (self.alphabet, self.fat_finger_only, target)
        cached = _CANDIDATE_CACHE.get(key)
        if cached is not None:
            _CANDIDATE_CACHE_HITS += 1
            return list(cached)
        _CANDIDATE_CACHE_MISSES += 1
        out = self._generate_uncached(target)
        if len(_CANDIDATE_CACHE) >= _CANDIDATE_CACHE_MAX:
            _CANDIDATE_CACHE.clear()
        _CANDIDATE_CACHE[key] = tuple(out)
        return out

    def _generate_uncached(self, target: str) -> List[TypoCandidate]:
        label, tld = split_domain(target)
        out: List[TypoCandidate] = []
        for op, index, ch in enumerate_edit_ops(label, self.alphabet,
                                                self.fat_finger_only):
            typo_label = apply_edit(label, op, index, ch)
            out.append(TypoCandidate(
                domain=f"{typo_label}.{tld}", target=target, edit_type=op,
                edit_index=index,
                fat_finger=fat_finger_for_edit(label, op, index, ch),
                visual=visual_distance_for_edit(label, op, index, ch)))
        return out

    def generate_many(self, targets: Iterable[str]) -> List[TypoCandidate]:
        """Typo candidates for a collection of targets, deduplicated.

        When a candidate string is a DL-1 typo of several targets it is
        attributed to the *first* target in iteration order, mirroring how
        a registrant can only serve one squatting purpose per name.
        """
        seen: Set[str] = set()
        out: List[TypoCandidate] = []
        for target in targets:
            for cand in self.generate(target):
                if cand.domain not in seen:
                    seen.add(cand.domain)
                    out.append(cand)
        return out

    # -- targeted lookups ------------------------------------------------------

    def annotate(self, target: str, typo_domain: str) -> Optional[TypoCandidate]:
        """Annotate an existing domain as a typo of ``target`` (or None)."""
        label, tld = split_domain(target)
        typo_label, typo_tld = split_domain(typo_domain)
        if tld != typo_tld:
            return None
        edit = classify_edit(label, typo_label)
        if edit is None:
            return None
        edit_type, index = edit
        if edit_type == "substitution":
            char = typo_label[index]
        elif edit_type == "addition":
            char = typo_label[index]
        else:
            char = ""
        return TypoCandidate(
            domain=typo_domain, target=target, edit_type=edit_type,
            edit_index=index,
            fat_finger=fat_finger_for_edit(label, edit_type, index, char),
            visual=visual_distance_for_edit(label, edit_type, index, char))
