"""Lazy, deterministic world model behind the paper-scale ecosystem scan.

:func:`~repro.ecosystem.internet.build_internet` materializes every wild
domain, registry zone, and SMTP host up front — fine for a ~300-target
world, hopeless for the paper's Alexa top one million.  This module holds
the *law* of that world in a form that can be evaluated per ``(seed,
rank)`` on demand:

* the ranked target list is derived per rank (the study's email targets
  first, then pronounceable filler domains derived in seed-keyed chunks);
* each rank's DL-1 candidate grid gets its registration draw from a
  rank-keyed counter-based stream, with the squatter quality law (edit
  type, fat-finger, visual distance) evaluated only where it can matter —
  candidate *strings* are only built for the few that register;
* registered candidates draw owner, support, MX, DNS, and WHOIS state
  from a rank-keyed uniform stream, and the zmap-style probe observation
  from another.

One walk derives all of it, and each rule lives once inside it: the
registration draw (:meth:`WorldModel._draws`, batched over head and
filler-chunk blocks, confirmed by :func:`_confirm`), the wild-state law
(:meth:`WorldModel._wild_words`, small integer codes packed into one
int64 walk word per row), and the membership oracle
(:meth:`WorldModel.target_rank`, which drops a candidate that is itself
a target).  Two consumers read it: :meth:`WorldModel.scan_ranks` probes
and folds the words into scan aggregates, and
:meth:`WorldModel.featurize_ranks` masks them into feature words.  A
world keeps the walk of the last window it walked (the per-rank tuples
the walk yielded: a word and a visual cost per row, a few references per
rank), so the second consumer of one window reads it instead of walking
again.
:meth:`WorldModel.iter_rank_states` maps the same words to strings, the
:class:`DomainState` form ``build_internet`` and the query service read.

Every stream is a pure function of ``(seed, purpose, rank)``: uniforms
come from a Philox counter-based generator whose key is
``derive_seed(seed, purpose)`` and whose 256-bit counter starts at
``[0, 0, 0, rank]``.  Counter-based streams make the derivation
*shard-independent* — any partition of the rank space produces identical
per-rank results, which is the property the sharded scanner's digest
tests pin down — and repositioning one reused bit generator costs ~2us
where constructing a fresh ``default_rng`` per rank costs ~16us.
``build_internet`` is a materializer of this same law, so a lazily
scanned world and an eagerly built one agree on ground truth.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.targets import EMAIL_TARGETS
from repro.core.typogen import (
    DOMAIN_ALPHABET,
    TypoCandidate,
    registrable_domain,
    split_domain,
)
from repro.core.distances import (
    char_visual_cost,
    fat_finger_for_edit,
    visual_distance_for_edit,
)
from repro.core.keyboard import qwerty_adjacency
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.internet import (
    _CESSPOOL_NAMESERVERS,
    _NORMAL_NAMESERVERS,
    _PRONOUNCEABLE_ONSETS,
    _PRONOUNCEABLE_VOWELS,
    _RESELLER_SUPPORT_MIX,
    AlexaEntry,
    InternetConfig,
    OwnerType,
    SQUATTER_MX_POOL,
    SmtpSupport,
)
from repro.ecosystem.whois import PRIVACY_PROXIES, RegistrantPersona, make_registrant
from repro.util.perf import PerfRegistry
from repro.util.rand import SeededRng, derive_seed

__all__ = ["DomainState", "WorldModel", "PARKED_MX_HOSTS", "WEB_MX_HOSTS"]

#: The dark mail hosts bulk squatters park non-mail inventory on, matching
#: the hosts ``build_internet`` materializes.
PARKED_MX_HOSTS: Tuple[str, ...] = tuple(
    f"parked-mx-{i}.example" for i in range(3))
WEB_MX_HOSTS: Tuple[str, ...] = tuple(
    f"web-mx-{i}.example" for i in range(3))

#: owner classes by the small integer code the hot path switches on
_OWNER_BY_CODE: Tuple[OwnerType, ...] = (
    OwnerType.DEFENSIVE, OwnerType.LEGITIMATE, OwnerType.BULK_SQUATTER,
    OwnerType.MEDIUM_SQUATTER, OwnerType.SMALL_SQUATTER)
_OWNER_VALUE_BY_CODE: Tuple[str, ...] = tuple(
    owner.value for owner in _OWNER_BY_CODE)

#: SMTP support by the small integer code the hot path switches on —
#: records carry codes so the streaming fold never hashes an enum
_SUPPORT_BY_CODE: Tuple[SmtpSupport, ...] = (
    SmtpSupport.NO_DNS, SmtpSupport.NO_INFO, SmtpSupport.NO_EMAIL,
    SmtpSupport.PLAIN, SmtpSupport.STARTTLS_ERRORS, SmtpSupport.STARTTLS_OK)
_SUPPORT_CODE: Dict[SmtpSupport, int] = {
    s: i for i, s in enumerate(_SUPPORT_BY_CODE)}
_SUPPORT_VALUE_BY_CODE: Tuple[str, ...] = tuple(
    s.value for s in _SUPPORT_BY_CODE)

#: string forms of the walk's edit-op, profile and policy codes
_OP_NAMES = ("deletion", "transposition", "substitution", "addition")
_PROFILES = ("collector", "reseller")          # by reseller flag
_POLICIES = (None, "catch_all", "reject_unknown", "domain")

@dataclass(frozen=True)
class DomainState:
    """Ground truth about one registered ctypo, derived — not stored.

    Carries everything ``build_internet`` needs to materialize the domain
    (zone records, SMTP server flags, WHOIS record) and everything the
    streaming scanner needs to emulate the probe.
    """

    domain: str
    target: str
    rank: int
    edit_op: str
    edit_index: int
    edit_char: str
    owner_id: str
    owner_type: OwnerType
    profile: str                    # "collector" | "reseller" | ""
    support: SmtpSupport            # ground truth (Table 4 category)
    mx_domain: Optional[str]        # explicit MX host, None => A-record only
    has_address: bool               # domain itself carries an A record
    nameserver: str
    private_whois: bool
    privacy_proxy: Optional[str]
    whois_fields_filled: int
    #: small-squatter / legitimate recipient policy: "catch_all",
    #: "reject_unknown", "domain", or None when no listener exists
    longtail_policy: Optional[str]

    @property
    def is_squatting(self) -> bool:
        return self.owner_type in (OwnerType.BULK_SQUATTER,
                                   OwnerType.MEDIUM_SQUATTER,
                                   OwnerType.SMALL_SQUATTER)

    @property
    def is_bulk(self) -> bool:
        return self.owner_type in (OwnerType.BULK_SQUATTER,
                                   OwnerType.MEDIUM_SQUATTER)

    def candidate(self) -> TypoCandidate:
        """The generator-equivalent :class:`TypoCandidate` for this ctypo."""
        label, _ = split_domain(self.target)
        return TypoCandidate(
            domain=self.domain, target=self.target, edit_type=self.edit_op,
            edit_index=self.edit_index,
            fat_finger=fat_finger_for_edit(label, self.edit_op,
                                           self.edit_index, self.edit_char),
            visual=visual_distance_for_edit(label, self.edit_op,
                                            self.edit_index, self.edit_char))


# -- rank-keyed uniform streams ------------------------------------------------


def _rank_uniforms(seed: int, purpose: str, rank: int,
                   count: int) -> np.ndarray:
    """The canonical uniform stream of ``(seed, purpose, rank)``.

    One-shot reference form of the law; :class:`_RankKeyedStream` produces
    byte-identical output by repositioning a reused bit generator.
    """
    bitgen = np.random.Philox(key=derive_seed(seed, purpose),
                              counter=[0, 0, 0, rank])
    return np.random.Generator(bitgen).random(count)


class _RankKeyedStream:
    """A reusable Philox generator repositioned to ``counter=[0,0,0,rank]``.

    Philox is counter-based: output is a pure function of (key, counter),
    so seeking is exact and O(1).  Drawing advances the low counter word,
    leaving rank streams (separated in the high word) disjoint for 2**192
    blocks.  Resetting state on a live bit generator avoids the ~16us
    construction cost of a fresh Generator per rank.
    """

    __slots__ = ("_bitgen", "_gen", "_state", "_counter", "_buffers")

    def __init__(self, seed: int, purpose: str) -> None:
        self._bitgen = np.random.Philox(key=derive_seed(seed, purpose))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._counter = self._state["state"]["counter"]
        self._buffers: Dict[int, np.ndarray] = {}

    def uniforms(self, rank: int, count: int) -> np.ndarray:
        """The rank's stream prefix.  The returned array is a reused
        scratch buffer: consume it before the next ``uniforms`` call."""
        buf = self._buffers.get(count)
        if buf is None:
            buf = np.empty(count)
            self._buffers[count] = buf
        return self.uniforms_into(rank, buf)

    def uniforms_into(self, rank: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (contiguous float64) with the rank's stream prefix.

        Byte-identical to :meth:`uniforms` of the same length; the
        caller-owned destination lets the feature sweep draw many ranks
        into one matrix and preselect with a single vector compare."""
        counter = self._counter
        counter[0] = 0
        counter[1] = 0
        counter[2] = 0
        counter[3] = rank
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._bitgen.state = self._state
        return self._gen.random(out=out)


# -- vectorised registration grid ---------------------------------------------
#
# The raw DL-1 grid of a label of length L is laid out flat as
#   [ deletions: L ][ transpositions: L-1 ][ substitutions: L*A ][ additions: (L+1)*A ]
# position-major with the alphabet innermost — exactly the order
# ``enumerate_edit_ops`` walks.  Validity/dedup masks reproduce its skip
# rules, so ``valid.sum()`` equals the generator's candidate count, and a
# flat index decodes back to ``(op, index, char)`` arithmetically.  The
# registration uniforms are drawn over the *raw* grid (invalid slots
# included), which makes the stream independent of the masks' consumers.

_ALPHA_SIZE = len(DOMAIN_ALPHABET)
_ALPHA_CODES = np.frombuffer(DOMAIN_ALPHABET.encode("ascii"), dtype=np.uint8)
_HYPHEN = ord("-")
_HYPHEN_IDX = DOMAIN_ALPHABET.index("-")

#: the quality law's per-section maxima: base * fat-finger * qf <= base*1.6*1.5
_QUALITY_MAX = 6.0 * 1.6 * 1.5

_ADJ37: Optional[np.ndarray] = None
_COST37: Optional[np.ndarray] = None
_ADJ_LIST: Optional[list] = None
_COST_LIST: Optional[list] = None


def _char_tables() -> Tuple[np.ndarray, np.ndarray]:
    """(adjacency, visual-cost) matrices over the domain alphabet."""
    global _ADJ37, _COST37, _ADJ_LIST, _COST_LIST
    if _ADJ37 is None:
        adj = np.zeros((_ALPHA_SIZE, _ALPHA_SIZE), dtype=bool)
        cost = np.zeros((_ALPHA_SIZE, _ALPHA_SIZE), dtype=np.float64)
        for i, a in enumerate(DOMAIN_ALPHABET):
            neighbours = qwerty_adjacency(a)
            for j, b in enumerate(DOMAIN_ALPHABET):
                adj[i, j] = b in neighbours
                cost[i, j] = char_visual_cost(a, b)
        _ADJ37, _COST37 = adj, cost
        _ADJ_LIST, _COST_LIST = adj.tolist(), cost.tolist()
    return _ADJ37, _COST37


_CODE2IDX = np.full(128, -1, dtype=np.int64)
for _i, _c in enumerate(DOMAIN_ALPHABET):
    _CODE2IDX[ord(_c)] = _i
_CODE2IDX_LIST = _CODE2IDX.tolist()

# -- packed feature-row layout -------------------------------------------------
#
# ``WorldModel.featurize_ranks`` emits one (packed int, visual float) pair
# per wild registered ctypo; everything else a feature row needs is either
# inside the packed word or shared per rank.  The state fields are the
# wild-state law's codes verbatim.  Bit layout (LSB up):
#
#   op:2  index:6  char:6  digits:6  hyphens:6  vowels:6  mx:3  addr:1
#   ns:2  private:1  fields:3  policy:2  support:3  squat:1  adjacent:1
#
# 49 bits total — comfortably inside an int64, so a whole block converts
# to numpy with one ``np.array`` call and unpacks with vector shifts.
# Decoders live in :mod:`repro.features.domains`; the op codes are
# 0 deletion, 1 transposition, 2 substitution, 3 addition, the mx codes
# 0 none, 1 parked, 2 web, 3 pool, 4 self, 5 mx.<target>, and the ns
# codes 0 cesspool, 1 normal, 2 ns.<target>.

FEATURE_PACK_SHIFTS = {
    "op": 0, "index": 2, "char": 8, "digits": 14, "hyphens": 20,
    "vowels": 26, "mx": 32, "addr": 35, "ns": 36, "private": 38,
    "fields": 39, "policy": 42, "support": 44, "squat": 47,
    "adjacent": 48,
}

#: per-alphabet-index digit/hyphen/vowel bits at their packed offsets,
#: so a label's lexical counts are one sum and an edit's are +/- a char
_IDX_LEX = [(c.isdigit() << FEATURE_PACK_SHIFTS["digits"])
            | ((c == "-") << FEATURE_PACK_SHIFTS["hyphens"])
            | ((c in "aeiou") << FEATURE_PACK_SHIFTS["vowels"])
            for c in DOMAIN_ALPHABET]

# -- the walk word -------------------------------------------------------------
#
# The walk keeps each wild row as one int64 word plus its visual cost.
# The word holds the slot (op, index, char, fat-finger bit) and all
# twelve wild-state codes, at the offsets ``_WALK_FIELDS`` names.  Fields
# the feature word carries too sit at their FEATURE_PACK_SHIFTS offsets,
# so ``featurize_ranks`` derives its word with one mask plus the typo's
# lexical counts; the walk-only codes fill the lexical-count bits (14-31)
# and the bits above 48, 61 bits in all.  The owner pick is a registrant
# index or the rank's running count of legitimate or small owners (a
# rank has under 4k slots); the mx, ns and proxy picks index pools of at
# most 8, 40 and 3 entries.  Every word is built by ``_word`` or from
# the tables below, and read through ``_fields``.

#: every walk-word field: name -> (shift, width)
_WALK_FIELDS = {
    **{name: (FEATURE_PACK_SHIFTS[name], width) for name, width in (
        ("op", 2), ("index", 6), ("char", 6), ("mx", 3), ("addr", 1),
        ("ns", 2), ("private", 1), ("fields", 3), ("policy", 2),
        ("support", 3), ("squat", 1), ("adjacent", 1))},
    "owner": (14, 3), "owner_pick": (17, 15),
    "mx_pick": (49, 4), "ns_pick": (53, 6), "proxy": (59, 2),
}


def _word(**fields: int) -> int:
    """The walk word with ``fields`` set and every other field zero."""
    word = 0
    for name, value in fields.items():
        shift, width = _WALK_FIELDS[name]
        if not 0 <= value < 1 << width:
            raise ValueError(f"walk-word field {name}={value} does not fit "
                             f"its {width} bits")
        word |= value << shift
    return word


def _fields(*names: str) -> Tuple[int, ...]:
    """``shift, mask`` per named walk-word field, flattened, for the
    decoders' ``(word >> shift) & mask``."""
    return tuple(x for name in names for x in (
        _WALK_FIELDS[name][0], (1 << _WALK_FIELDS[name][1]) - 1))


#: the walk-word bits the feature word shares: slot, state and squat bit
_FEATURE_MASK = sum(_word(**{name: (1 << width) - 1})
                    for name, (_, width) in _WALK_FIELDS.items()
                    if name in FEATURE_PACK_SHIFTS)
#: the walk-word state of every defensive registration (see
#: ``WorldModel._wild_words``): mail and DNS at the target, full WHOIS
_DEFENSIVE_WORD = _word(mx=5, ns=2, fields=6, support=5)
#: ... the fixed part of every legitimate one: address, full WHOIS and
#: STARTTLS mail
_LEGIT_WORD = _word(owner=1, addr=1, fields=6, support=5)
#: ... and of every small squatter's
_SMALL_WORD = _word(owner=4, squat=1)
#: pre-shifted walk-word parts the wild-state law ORs together: a table
#: read costs less than a shift, and a shift of a code into the high
#: bits allocates a fresh int
_CESSPOOL_NS_WORDS = tuple(_word(ns=0, ns_pick=i)
                           for i in range(len(_CESSPOOL_NAMESERVERS)))
_NORMAL_NS_WORDS = tuple(_word(ns=1, ns_pick=i)
                         for i in range(len(_NORMAL_NAMESERVERS)))
#: parked (mx kind 1) and web (mx kind 2) hosts, by kind then host pick
_HOST_WORDS = (None, *(tuple(_word(mx=kind, mx_pick=i) for i in range(3))
                       for kind in (1, 2)))
_POOL_WORDS = tuple(_word(mx=3, mx_pick=i)
                    for i in range(len(SQUATTER_MX_POOL)))
#: private WHOIS: the proxy pick, fields stay full
_PROXY_WORDS = tuple(_word(private=1, fields=6, proxy=i)
                     for i in range(len(PRIVACY_PROXIES)))
_FIELDS_WORDS = tuple(_word(fields=f) for f in range(7))
_POLICY_WORDS = tuple(_word(policy=p) for p in range(4))
_SUPPORT_WORDS = tuple(_word(support=s) for s in range(6))
_ADJACENT_BIT = _word(adjacent=1)
_ADDR_BIT = _word(addr=1)
_PRIVATE_BIT = _word(private=1)
_SELF_MX_WORD = _word(mx=4)

#: rows a walk keeps for a second consumer of its window (the default
#: ``block_records``); a wider window streams without a memo.  The memo
#: holds the walk's own row tuples, ~80 bytes a row, so at most ~5 MB
_WALK_MEMO_ROWS = 1 << 16

#: ranks per batched registration draw in the walk — large enough to
#: amortize the per-slab numpy dispatch, small enough that the draw
#: matrix stays a few MB
_DRAW_BATCH = 256

#: sentinel marking a rank whose registration draw needs the dense path
_DENSE = ("dense",)


def _position_weights(length: int) -> np.ndarray:
    """``position_weight(i, length)`` for i in 0..length (vectorised)."""
    out = np.empty(length + 1, dtype=np.float64)
    if length <= 1:
        out[:] = 1.0
        return out
    rel = np.arange(length + 1, dtype=np.float64) / (length - 1)
    out[:] = 0.85 + 0.3 * np.abs(rel - 0.5)
    out[0] = 1.3
    out[length - 1:] = 1.15
    return out


_POSW_CACHE: Dict[int, list] = {}


def _position_weight_list(length: int) -> list:
    posw = _POSW_CACHE.get(length)
    if posw is None:
        posw = _position_weights(length).tolist()
        _POSW_CACHE[length] = posw
    return posw


def _sections(length: int) -> Tuple[int, int, int, int]:
    return (length, max(0, length - 1), length * _ALPHA_SIZE,
            (length + 1) * _ALPHA_SIZE)


def _grid_total(length: int) -> int:
    n_del, n_trans, n_sub, n_add = _sections(length)
    return n_del + n_trans + n_sub + n_add


_SECTION_UPPER_CACHE: Dict[int, np.ndarray] = {}


def _section_upper(length: int) -> np.ndarray:
    """Per-slot quality upper bound (by section), for sparse preselection."""
    upper = _SECTION_UPPER_CACHE.get(length)
    if upper is None:
        n_del, n_trans, n_sub, n_add = _sections(length)
        upper = np.concatenate([
            np.full(n_del, 6.0 * 1.6 * 1.5),
            np.full(n_trans, 5.0 * 1.6 * 1.5),
            np.full(n_sub, 1.6 * 1.5),
            np.full(n_add, 0.45 * 1.6 * 1.5),
        ])
        _SECTION_UPPER_CACHE[length] = upper
    return upper


@dataclass(frozen=True)
class RankGrid:
    """The registration draw of one rank's raw DL-1 edit grid."""

    label: str
    generated: int               # valid (deduped) gtypos in the grid
    registered: np.ndarray       # flat raw-grid indices that registered
    section_sizes: Tuple[int, int, int, int]

    def decode(self, flat: int) -> Tuple[str, int, str]:
        """Flat raw-grid index -> ``(op, index, char)``."""
        n_del, n_trans, n_sub, _ = self.section_sizes
        if flat < n_del:
            return "deletion", flat, ""
        flat -= n_del
        if flat < n_trans:
            return "transposition", flat, ""
        flat -= n_trans
        if flat < n_sub:
            return ("substitution", flat // _ALPHA_SIZE,
                    DOMAIN_ALPHABET[flat % _ALPHA_SIZE])
        flat -= n_sub
        return ("addition", flat // _ALPHA_SIZE,
                DOMAIN_ALPHABET[flat % _ALPHA_SIZE])


def _grid_masks(label: str) -> Tuple[np.ndarray, np.ndarray,
                                     Tuple[int, int, int, int]]:
    """(valid mask, quality, section sizes) over the raw DL-1 grid.

    ``valid`` reproduces :func:`enumerate_edit_ops`' dedup/validity rules
    slot for slot (a property the parity tests pin down); ``quality`` is
    the squatter preference law of ``internet._typo_quality`` evaluated
    for every slot.
    """
    codes = np.frombuffer(label.encode("ascii"), dtype=np.uint8)
    idx = _CODE2IDX[codes]
    if np.any(idx < 0):
        raise ValueError(f"label {label!r} has characters outside the "
                         "domain alphabet")
    length = len(label)
    adj, cost = _char_tables()
    posw = _position_weights(length)
    inv_len = 3.0 / max(1, length)

    def quality_factor(vis: np.ndarray) -> np.ndarray:
        return np.maximum(0.2, 1.5 - vis * inv_len)

    # deletions --------------------------------------------------------------
    del_valid = np.zeros(length, dtype=bool)
    if 2 <= length <= 64:
        del_valid[:] = True
        del_valid[1:] = codes[1:] != codes[:-1]
        if codes[1] == _HYPHEN:
            del_valid[0] = False
        if codes[length - 2] == _HYPHEN:
            del_valid[length - 1] = False
    doubled = np.zeros(length, dtype=bool)
    doubled[:-1] |= codes[:-1] == codes[1:]
    doubled[1:] |= codes[1:] == codes[:-1]
    del_vis = np.where(doubled, 0.3, 0.9) * posw[:length]
    del_q = 6.0 * 1.6 * quality_factor(del_vis)

    # transpositions ---------------------------------------------------------
    n_trans = max(0, length - 1)
    trans_valid = np.zeros(n_trans, dtype=bool)
    if n_trans and length <= 63:
        trans_valid[:] = codes[:-1] != codes[1:]
        if codes[1] == _HYPHEN:
            trans_valid[0] = False
        if codes[length - 2] == _HYPHEN:
            trans_valid[n_trans - 1] = False
    trans_q = 5.0 * 1.6 * quality_factor(0.5 * posw[:n_trans])

    # substitutions (position-major, alphabet innermost) ---------------------
    same_char = _ALPHA_CODES[None, :] == codes[:, None]        # (L, A)
    sub_valid = ~same_char
    if length > 63:
        sub_valid[:] = False
    else:
        hyphen_col = _ALPHA_CODES == _HYPHEN
        sub_valid[0, hyphen_col] = False
        sub_valid[length - 1, hyphen_col] = False
    sub_adj = adj[idx]                                          # (L, A)
    sub_vis = cost[idx] * posw[:length, None]
    sub_q = np.where(sub_adj, 1.6, 1.0) * quality_factor(sub_vis)

    # additions --------------------------------------------------------------
    prev_eq = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    prev_eq[1:] = same_char
    next_eq = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    next_eq[:length] = same_char
    prev_adj = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    prev_adj[1:] = sub_adj
    next_adj = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    next_adj[:length] = sub_adj
    add_ff1 = prev_eq | prev_adj | next_eq | next_adj
    add_doubles = prev_eq | next_eq
    add_valid = ~prev_eq                       # run dedup: same as earlier slot
    if length + 1 > 63:
        add_valid[:] = False
    else:
        hyphen_col = _ALPHA_CODES == _HYPHEN
        add_valid[0, hyphen_col] = False
        add_valid[length, hyphen_col] = False
    add_vis = np.where(add_doubles, 0.3, 1.0) * posw[:, None]
    add_q = (0.45 * np.where(add_ff1, 1.6, 1.0) * quality_factor(add_vis))

    quality = np.concatenate([del_q, trans_q, sub_q.ravel(), add_q.ravel()])
    valid = np.concatenate([del_valid, trans_valid, sub_valid.ravel(),
                            add_valid.ravel()])
    return valid, quality, _sections(length)


def _generated_count(label: str) -> int:
    """``len(enumerate_edit_ops(label))`` in O(L), no grid materialized.

    Mirrors the generator's validity/dedup rules section by section; the
    parity tests pin it against the enumerator and against
    ``_grid_masks(label)[0].sum()``.
    """
    length = len(label)
    c = label
    if 2 <= length <= 62 and "-" not in c:
        # hyphen-free closed form: only the adjacent-duplicate dedup
        # bites, once in the deletion section and once in transpositions
        dups = 0
        prev = c[0]
        for ch in c[1:]:
            if ch == prev:
                dups += 1
            prev = ch
        return 74 * length + 32 - 2 * dups
    total = 0
    if 2 <= length <= 64:                       # deletions
        for i in range(length):
            if i > 0 and c[i] == c[i - 1]:
                continue
            if i == 0 and c[1] == "-":
                continue
            if i == length - 1 and c[length - 2] == "-":
                continue
            total += 1
    if 2 <= length <= 63:                       # transpositions
        n_trans = length - 1
        for i in range(n_trans):
            if c[i] == c[i + 1]:
                continue
            if i == 0 and c[1] == "-":
                continue
            if i == n_trans - 1 and c[length - 2] == "-":
                continue
            total += 1
    if length <= 63:                            # substitutions
        for i in range(length):
            slots = _ALPHA_SIZE - 1             # minus the original char
            if (i == 0 or i == length - 1) and c[i] != "-":
                slots -= 1                      # boundary hyphen
            total += slots
    if length + 1 <= 63:                        # additions
        for i in range(length + 1):
            slots = _ALPHA_SIZE
            if i >= 1:
                slots -= 1                      # run dedup vs previous char
            if i == 0:
                slots -= 1                      # leading hyphen
            elif i == length and c[length - 1] != "-":
                slots -= 1                      # trailing hyphen
            total += slots
    return total


#: per-length (threshold, hit-mask) scratch pair for the sparse preselect
_PRESELECT_SCRATCH: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _label_indices(label: str) -> List[int]:
    """The label's alphabet-index list, the confirm step's input."""
    lidx = [_CODE2IDX_LIST[b] for b in label.encode("ascii")]
    if min(lidx) < 0:
        raise ValueError(f"label {label!r} has characters outside the "
                         "domain alphabet")
    return lidx


def _grid_draw(label: str, reg_p: float,
               uniforms: np.ndarray) -> Tuple[int, List[int]]:
    """(generated count, registered flat indices) of one rank's raw grid."""
    flats, uvals = _candidates(label, reg_p, uniforms)
    if uvals is not None:
        flats = [slot[0] for slot in
                 _confirm(_label_indices(label), reg_p, flats, uvals)]
    return _generated_count(label), flats


def _candidates(label: str, reg_p: float, uniforms: np.ndarray
                ) -> Tuple[List[int], Optional[List[float]]]:
    """One rank's registration candidates as ``(flats, uniforms)``.

    Dense regime (the 0.95 probability cap can bind): evaluate the full
    validity/quality masks; the flats are the registrations and the
    uniforms ``None``, nothing being left to test.  Sparse regime (every
    slot's probability is below the cap): preselect ``u < reg_p *
    section_max`` — a strict superset of the registrations — for
    :func:`_confirm` to settle with the scalar law.  Both paths register
    the identical set; the parity tests pin that.
    """
    if reg_p * _QUALITY_MAX >= 0.95:
        valid, quality, _ = _grid_masks(label)
        probability = np.minimum(0.95, reg_p * quality)
        return np.nonzero(valid & (uniforms < probability))[0].tolist(), None

    length = len(label)
    scratch = _PRESELECT_SCRATCH.get(length)
    if scratch is None:
        total = _grid_total(length)
        scratch = (np.empty(total), np.empty(total, dtype=bool))
        _PRESELECT_SCRATCH[length] = scratch
    thresh, hits = scratch
    np.multiply(_section_upper(length), reg_p, out=thresh)
    np.less(uniforms, thresh, out=hits)
    cand_arr = hits.nonzero()[0]
    return cand_arr.tolist(), uniforms[cand_arr].tolist()


def _confirm(lidx: List[int], reg_p: float, cand_flats: List[int],
             uvals: Optional[List[float]]) -> List[tuple]:
    """Confirm raw-grid slots with the scalar validity + quality law.

    ``cand_flats`` must be a superset of the registrations produced by
    any bound of the form ``u < reg_p * upper`` with per-section
    ``upper >= quality``; the scalar law then keeps exactly the slots the
    dense path would.  ``uvals is None`` skips the uniform test, for
    slots the dense path already drew.  Each kept slot comes back as
    ``(flat, slot word, visual cost)``: the slot word holds the op,
    index, char and fat-finger bit at their walk-word offsets (op codes
    0 deletion, 1 transposition, 2 substitution, 3 addition; the char an
    alphabet index, 0 where the op inserts none).  The visual cost and
    fat-finger bit are the quality law's own terms, so no consumer
    re-derives them.
    """
    kept: List[tuple] = []
    op_sh, _, index_sh, _, char_sh, _ = _SLOT_FIELDS
    adjacent = _ADJACENT_BIT
    if not cand_flats:
        return kept
    _char_tables()
    adj, cost = _ADJ_LIST, _COST_LIST
    length = len(lidx)
    posw = _position_weight_list(length)
    inv_len = 3.0 / max(1, length)
    n_del = length
    n_trans = length - 1 if length > 1 else 0
    sub_base = n_del + n_trans
    add_base = sub_base + length * _ALPHA_SIZE
    hyphen = _HYPHEN_IDX
    check = uvals is not None
    for k, flat in enumerate(cand_flats):
        if flat < n_del:
            i = flat
            if length < 2 or length > 64:
                continue
            rm = lidx[i]
            if i > 0 and rm == lidx[i - 1]:
                continue
            if i == 0 and lidx[1] == hyphen:
                continue
            if i == length - 1 and lidx[length - 2] == hyphen:
                continue
            doubled = i < length - 1 and rm == lidx[i + 1]
            vis = (0.3 if doubled else 0.9) * posw[i]
            q = 6.0 * 1.6 * max(0.2, 1.5 - vis * inv_len)
            op, a, ff = 0, 0, True
        elif flat < sub_base:
            i = flat - n_del
            if length > 63:
                continue
            if lidx[i] == lidx[i + 1]:
                continue
            if i == 0 and lidx[1] == hyphen:
                continue
            if i == n_trans - 1 and lidx[length - 2] == hyphen:
                continue
            vis = 0.5 * posw[i]
            q = 5.0 * 1.6 * max(0.2, 1.5 - vis * inv_len)
            op, a, ff = 1, 0, True
        elif flat < add_base:
            i, a = divmod(flat - sub_base, _ALPHA_SIZE)
            if length > 63:
                continue
            rm = lidx[i]
            if a == rm:
                continue
            if a == hyphen and (i == 0 or i == length - 1):
                continue
            vis = cost[rm][a] * posw[i]
            ff = adj[rm][a]
            q = (1.6 if ff else 1.0) * max(0.2, 1.5 - vis * inv_len)
            op = 2
        else:
            i, a = divmod(flat - add_base, _ALPHA_SIZE)
            if length + 1 > 63:
                continue
            if i >= 1 and a == lidx[i - 1]:
                continue
            if a == hyphen and (i == 0 or i == length):
                continue
            next_eq = i < length and a == lidx[i]
            ff = (next_eq or (i >= 1 and adj[lidx[i - 1]][a])
                  or (i < length and adj[lidx[i]][a]))
            vis = (0.3 if next_eq else 1.0) * posw[i]
            q = 0.45 * (1.6 if ff else 1.0) * max(0.2, 1.5 - vis * inv_len)
            op = 3
        if check and uvals[k] >= reg_p * q:
            continue
        slot = (op << op_sh) | (i << index_sh) | (a << char_sh)
        kept.append((flat, slot | adjacent if ff else slot, vis))
    return kept


#: the slot's fields, as :func:`_spell` and ``featurize_ranks`` read them
_SLOT_FIELDS = _fields("op", "index", "char")
#: every field ``WorldModel._state`` reads but the two bits
_STATE_FIELDS = _SLOT_FIELDS + _fields(
    "owner", "owner_pick", "mx", "mx_pick", "ns", "ns_pick", "proxy",
    "fields", "policy", "support")


def _spell(label: str, word: int) -> str:
    """The typo label the edit in a walk (or slot) word makes of
    ``label``."""
    op_sh, op_m, index_sh, index_m, char_sh, char_m = _SLOT_FIELDS
    op = (word >> op_sh) & op_m
    i = (word >> index_sh) & index_m
    if op == 0:
        return label[:i] + label[i + 1:]
    if op == 1:
        return label[:i] + label[i + 1] + label[i] + label[i + 2:]
    char = DOMAIN_ALPHABET[(word >> char_sh) & char_m]
    if op == 2:
        return label[:i] + char + label[i + 1:]
    return label[:i] + char + label[i:]


def _registration_grid(label: str, seed: int, rank: int,
                       config: InternetConfig) -> RankGrid:
    """The registration draw for one rank's whole candidate grid."""
    reg_p = (config.peak_registration_probability
             / (rank ** config.rank_decay))
    uniforms = _rank_uniforms(seed, "reg", rank, _grid_total(len(label)))
    generated, registered = _grid_draw(label, reg_p, uniforms)
    return RankGrid(label=label, generated=generated,
                    registered=np.asarray(registered, dtype=np.int64),
                    section_sizes=_sections(len(label)))


# -- filler targets ------------------------------------------------------------

_FILLER_CHUNK = 1024

#: filler chunks whose syllable draws one world keeps for stem compares;
#: the cache clears when full, so a 10x-scale universe stays bounded
_STEM_CACHE_CAP = 4096

_SYL_TABLE: Optional[List[str]] = None


def _syllable_table() -> List[str]:
    """Onset+vowel syllables, flat-indexed ``onset * n_vowels + vowel``."""
    global _SYL_TABLE
    if _SYL_TABLE is None:
        _SYL_TABLE = [onset + vowel for onset in _PRONOUNCEABLE_ONSETS
                      for vowel in _PRONOUNCEABLE_VOWELS]
    return _SYL_TABLE


def _filler_syllables(seed: int, chunk: int) -> Tuple[array, bytes]:
    """(flat syllable indices, third-syllable flags) of one filler chunk.

    The stem half of the filler name law, drawn in numpy (~0.1 ms a
    chunk) and kept compact (7 KB): filler ``chunk*N + j`` has the stem
    ``syl[s[3j]] + syl[s[3j+1]]``, plus ``syl[s[3j+2]]`` where flag
    ``j`` is set.
    """
    uniforms = _rank_uniforms(seed, "fillers", chunk, _FILLER_CHUNK * 7)
    u = uniforms.reshape(_FILLER_CHUNK, 7)
    n_onsets = len(_PRONOUNCEABLE_ONSETS)
    n_vowels = len(_PRONOUNCEABLE_VOWELS)
    # columns are (u0, o1, v1, o2, v2, o3, v3); the truncating casts
    # reproduce the scalar ``min(int(u * n), n - 1)`` law exactly
    onset_i = np.minimum((u[:, 1::2] * n_onsets).astype(np.intp),
                         n_onsets - 1)
    vowel_i = np.minimum((u[:, 2::2] * n_vowels).astype(np.intp),
                         n_vowels - 1)
    return (array("H", (onset_i * n_vowels + vowel_i).astype(np.uint16)
                  .tobytes()),
            (u[:, 0] >= 0.5).tobytes())


def _filler_chunk(chunk: int, syllables: Tuple[array, bytes]
                  ) -> Tuple[List[str], List[int]]:
    """(names, generated counts) for filler indices [chunk*N, (chunk+1)*N).

    Chunked so a 100k-target universe costs ~100 stream constructions
    instead of one per domain; each name stays a pure function of
    ``(seed, index)``.  The generated count rides along because every
    filler label is hyphen-free letters followed by decimal digits, so
    the closed form of :func:`_generated_count` reduces to
    ``74*L + 32 - 2*dups`` where adjacent duplicates can only occur
    inside the digit run (onset+vowel syllables never repeat a
    character across a boundary) — the chunk parity test pins this
    against the general-purpose counter.
    """
    flat_i, third = syllables
    syl = _syllable_table()
    base = chunk * _FILLER_CHUNK
    names: List[str] = []
    counts: List[int] = []
    append_name, append_count = names.append, counts.append
    for j in range(_FILLER_CHUNK):
        k = 3 * j
        label = syl[flat_i[k]] + syl[flat_i[k + 1]]
        if third[j]:
            label += syl[flat_i[k + 2]]
        digits = str(base + j)
        dups = 0
        prev = ""
        for ch in digits:
            if ch == prev:
                dups += 1
            prev = ch
        append_count(74 * (len(label) + len(digits)) + 32 - 2 * dups)
        append_name(f"{label}{digits}.com")
    return names, counts


# -- the world model ----------------------------------------------------------


class WorldModel:
    """Derives the simulated Internet per ``(seed, rank)`` on demand.

    ``churn`` maps rank -> generation for a world evolved by daily
    registration/expiration churn (see :mod:`repro.ecosystem.delta`):
    a churned rank's registration, wild-state, and probe streams are
    re-keyed by generation, so its DL-1 grid re-rolls — some ctypos
    expire, others register — while every generation-0 rank stays
    byte-identical to the day-0 world.
    """

    def __init__(self, seed: int, config: Optional[InternetConfig] = None,
                 probe_attempts: int = 3,
                 churn: Optional[Dict[int, int]] = None) -> None:
        self.seed = seed
        self.config = config or InternetConfig()
        self.probe_attempts = probe_attempts
        config = self.config
        #: the study's email targets occupy the head ranks; fillers are
        #: derived lazily in seed-keyed chunks below
        self._head_names: List[str] = [t.name for t in EMAIL_TARGETS]
        self._head_parts: List[Tuple[str, str]] = []
        for name in self._head_names:
            label, _ = split_domain(name)
            self._head_parts.append((label, name[len(label) + 1:]))
        self._head_gen_counts: List[int] = [
            _generated_count(label) for label, _ in self._head_parts]
        self._head_rank: Dict[str, int] = {
            name: index + 1 for index, name in enumerate(self._head_names)}
        #: a typo that ends in a filler's digit run can only spell a head
        #: if some head label ends in a digit — the walk's collision
        #: pre-check rests on this
        self._letter_final_heads = not any(
            label[-1].isdigit() for label, _ in self._head_parts)
        #: filler chunks, built on demand and kept for the world's
        #: lifetime — a walk builds only its own window's chunks (the
        #: membership oracle reads foreign stems from ``_stems``), so
        #: the total stays bounded by the target universe, far below
        #: ``build_internet``'s list+frozenset materialization
        self._chunks: Dict[int, Tuple[List[str], List[int]]] = {}
        self._stems: Dict[int, Tuple[array, bytes]] = {}
        self._target_set: FrozenSet[str] = frozenset()
        self._target_set_size = 0
        self._churn: Optional[Dict[int, int]] = dict(churn) if churn else None
        self._streams: Dict[str, _RankKeyedStream] = {}
        #: the last window's walk, ``(key, generated count, row count,
        #: row tuples)`` (see ``_walk``); never shared with an evolved
        #: world, whose churn re-keys the streams
        self._walk_memo: Optional[tuple] = None
        # hot-path tables: cumulative weights for bisect draws, interned
        # owner-id strings, owner profiles, and the MX host pick ->
        # host / registrable-domain maps by MX kind
        self._bulk_cum, self._bulk_total = _cumulative(
            [1.8 ** -i for i in range(config.bulk_registrant_count)])
        self._bulk_ids = tuple(
            f"bulk-{i:02d}" for i in range(config.bulk_registrant_count))
        self._medium_ids = tuple(
            f"medium-{i:03d}" for i in range(config.medium_registrant_count))
        self._bulk_reseller = tuple(
            i < 3 for i in range(config.bulk_registrant_count))
        self._medium_reseller = tuple(
            i % 2 == 1 for i in range(config.medium_registrant_count))
        #: each registrant's class, pick and squat bit as a walk word
        #: (``_word`` rejects a count past the owner pick's width)
        self._bulk_words = tuple(
            _word(owner=2, owner_pick=i, squat=1)
            for i in range(config.bulk_registrant_count))
        self._medium_words = tuple(
            _word(owner=3, owner_pick=i, squat=1)
            for i in range(config.medium_registrant_count))
        self._support_mixes = {
            name: (tuple(_SUPPORT_CODE[s] for s in mix),
                   *_cumulative(list(mix.values())))
            for name, mix in (
                ("squatter", config.squatter_support_mix),
                ("reseller", _RESELLER_SUPPORT_MIX),
                ("longtail", config.longtail_support_mix))}
        pool_hosts = tuple(h for h, _, _ in SQUATTER_MX_POOL)
        self._pool_broken = tuple(b for _, _, b in SQUATTER_MX_POOL)
        self._pool_cum, self._pool_total = _cumulative(
            [w for _, w, _ in SQUATTER_MX_POOL])
        self._mx_hosts = (None, PARKED_MX_HOSTS, WEB_MX_HOSTS, pool_hosts)
        self._mx_keys = (None, *(
            tuple(registrable_domain(host) for host in hosts)
            for hosts in self._mx_hosts[1:]))

    def _stream(self, purpose: str) -> _RankKeyedStream:
        stream = self._streams.get(purpose)
        if stream is None:
            stream = _RankKeyedStream(self.seed, purpose)
            self._streams[purpose] = stream
        return stream

    # -- the ranked target list -------------------------------------------

    def _chunk(self, chunk: int) -> Tuple[List[str], List[int]]:
        """The (names, generated counts) of one filler chunk, cached."""
        cached = self._chunks.get(chunk)
        if cached is None:
            cached = _filler_chunk(chunk, self._syllables(chunk))
            self._chunks[chunk] = cached
        return cached

    def _syllables(self, chunk: int) -> Tuple[array, bytes]:
        """One filler chunk's syllable draws, cached (capped) in
        ``_stems``."""
        drawn = self._stems.get(chunk)
        if drawn is None:
            if len(self._stems) >= _STEM_CACHE_CAP:
                self._stems.clear()
            drawn = _filler_syllables(self.seed, chunk)
            self._stems[chunk] = drawn
        return drawn

    def _filler_stem(self, index: int) -> str:
        """The letter stem of filler ``index``, from its chunk's syllable
        draws — without building the chunk's 1,024 names."""
        chunk, offset = divmod(index, _FILLER_CHUNK)
        flat_i, third = self._syllables(chunk)
        syl = _syllable_table()
        k = 3 * offset
        stem = syl[flat_i[k]] + syl[flat_i[k + 1]]
        return stem + syl[flat_i[k + 2]] if third[offset] else stem

    def target_domain(self, rank: int) -> str:
        """The rank-``rank`` domain of the simulated Alexa list."""
        if rank < 1:
            raise ValueError("ranks start at 1")
        head = self._head_names
        if rank <= len(head):
            return head[rank - 1]
        chunk, offset = divmod(rank - 1 - len(head), _FILLER_CHUNK)
        return self._chunk(chunk)[0][offset]

    def alexa_entry(self, rank: int) -> AlexaEntry:
        return AlexaEntry(domain=self.target_domain(rank), rank=rank,
                          monthly_visitors=5e8 / (rank ** 0.9))

    def alexa_entries(self, count: int) -> List[AlexaEntry]:
        return [self.alexa_entry(rank) for rank in range(1, count + 1)]

    def target_names(self, max_rank: int) -> FrozenSet[str]:
        """The target-domain universe of a ``max_rank``-sized world.

        Materializes ``max_rank`` names, so it is the reference form for
        small worlds and parity tests; the streaming scan uses the O(1)
        :meth:`is_target_domain` law instead.
        """
        if self._target_set_size != max_rank:
            names = list(self._head_names[:max_rank])
            chunk = 0
            while len(names) < max_rank:
                names.extend(self._chunk(chunk)[0])
                chunk += 1
            self._target_set = frozenset(names[:max_rank])
            self._target_set_size = max_rank
        return self._target_set

    def is_target_domain(self, domain: str, max_rank: int) -> bool:
        """O(1) membership in the ``max_rank`` target universe.

        Equivalent to ``domain in target_names(max_rank)`` (pinned by
        tests) without materializing the universe, so shard setup cost
        no longer scales with ``max_rank``.
        """
        return self.target_rank(domain, max_rank) is not None

    def target_rank(self, domain: str, max_rank: int) -> Optional[int]:
        """The domain's rank in the ``max_rank`` universe, or ``None``.

        The membership law inverted, with the rank recovered: a domain
        is a target iff it is one of the email-study heads, or it
        parses as ``<stem><index>.com`` where ``index`` (decimal, no
        leading zeros — ``str`` never prints them) addresses a filler
        slot inside the universe and ``stem`` is that slot's stem.  A
        built chunk answers by name; an unbuilt one by its syllable
        draws, so probing a far slot never builds its chunk.  This is
        the single membership oracle: the scan, the feature sweep and
        the query service's candidate index all probe it, so they can
        never disagree.
        """
        rank = self._head_rank.get(domain)
        if rank is not None:
            return rank if rank <= max_rank else None
        if not domain.endswith(".com"):
            return None
        label = domain[:-4]
        stem = label.rstrip("0123456789")
        nstem = len(stem)
        # no digit suffix, or a stem no 2-3 onset+vowel syllables can
        # spell (syllables are 2-3 chars, so derived stems are 4-9)
        if nstem == len(label) or nstem < 4 or nstem > 9:
            return None
        digits = label[nstem:]
        if digits[0] == "0" and len(digits) > 1:
            return None                    # str(index) has no leading zeros
        index = int(digits)
        if index >= max_rank - len(self._head_names):
            return None
        built = self._chunks.get(index // _FILLER_CHUNK)
        if built is not None:
            hit = built[0][index % _FILLER_CHUNK] == domain
        else:
            hit = self._filler_stem(index) == stem
        return len(self._head_names) + index + 1 if hit else None

    def evolved(self, churn: Optional[Dict[int, int]]) -> "WorldModel":
        """A world over the same ``(seed, config)`` at different churn.

        Target *identities* never churn — only per-rank registration,
        wild-state, and probe streams are generation-keyed — so the
        filler chunk and stem caches and any materialized target set
        transfer to the new world unchanged.  This is what lets a
        resident index apply a churn delta without re-deriving the
        target universe.  The walk memo stays behind: churn re-keys the
        streams it was drawn from.
        """
        world = WorldModel(self.seed, self.config,
                           probe_attempts=self.probe_attempts, churn=churn)
        world._chunks = self._chunks
        world._stems = self._stems
        world._target_set = self._target_set
        world._target_set_size = self._target_set_size
        return world

    def persona(self, owner_id: str) -> RegistrantPersona:
        """The stable WHOIS persona behind an owner id."""
        return make_registrant(
            SeededRng(derive_seed(self.seed, owner_id)), owner_id)

    # -- per-rank derivation ----------------------------------------------

    def target_parts(self, rank: int) -> Tuple[str, str]:
        """(label, suffix) of the rank's target domain."""
        head = self._head_parts
        if 1 <= rank <= len(head):
            return head[rank - 1]
        name = self.target_domain(rank)
        return name[:-4], "com"

    def rank_generation(self, rank: int) -> int:
        """The rank's churn generation (0 = the day-0 world)."""
        if self._churn is None:
            return 0
        return self._churn.get(rank, 0)

    def _rank_purpose(self, base: str, rank: int) -> str:
        """Stream purpose of ``base`` at the rank's churn generation."""
        generation = self.rank_generation(rank)
        return base if generation == 0 else f"{base}@{generation}"

    def rank_grid(self, rank: int) -> RankGrid:
        label, _ = self.target_parts(rank)
        reg_p = (self.config.peak_registration_probability
                 / (rank ** self.config.rank_decay))
        uniforms = self._stream(self._rank_purpose("reg", rank)).uniforms(
            rank, _grid_total(len(label)))
        generated, registered = _grid_draw(label, reg_p, uniforms)
        return RankGrid(label=label, generated=generated,
                        registered=np.asarray(registered, dtype=np.int64),
                        section_sizes=_sections(len(label)))

    def rank_states(self, rank: int) -> List[DomainState]:
        """Ground truth of every ctypo this rank registers, in grid order."""
        return list(self.iter_rank_states(rank, self.rank_grid(rank)))

    def iter_rank_states(self, rank: int,
                         grid: RankGrid) -> Iterable[DomainState]:
        """Stream the rank's registered-domain states (never a list)."""
        target = self.target_domain(rank)
        label = grid.label
        dot_suffix = target[len(label):]
        slots = _confirm(_label_indices(label), 0.0,
                         grid.registered.tolist(), None)
        for word in self._wild_words(rank, slots):
            yield self._state(rank, target, _spell(label, word) + dot_suffix,
                              word)

    # -- the world walk ----------------------------------------------------
    #
    # scan_ranks and featurize_ranks consume one walk, _walk: _draws (the
    # registration draw over head and filler-chunk blocks), then per rank
    # _wild_words (the wild-state law) and the membership oracle's
    # collision rule, each row kept as one walk word.  The walk keeps the
    # row tuples it yields as a memo keyed by (start_rank, stop_rank,
    # max_rank), so a sweep that scans and then featurizes a window walks
    # it once.  iter_rank_states maps the same words to strings through
    # _state.

    def _draws(self, start_rank: int, stop_rank: int,
               tally: List[int]) -> Iterator[tuple]:
        """The registration draw of ranks ``[start_rank, stop_rank)``.

        Walks one block at a time — the email-target head, or one filler
        chunk's overlap with the window — so chunk lookups, generated
        counts and label slicing amortize across the block.  Inside a
        block, ranks draw in batches (:meth:`_preselect`), each from its
        churn generation's "reg" stream.  Yields ``(rank, target, label,
        suffix, label indices, slots)`` for every rank that registers a
        slot, with slots as :func:`_confirm` decodes them, and adds every
        rank's generated count to ``tally[0]``.
        """
        head_n = len(self._head_names)
        peak = self.config.peak_registration_probability
        decay = self.config.rank_decay
        buf: Optional[np.ndarray] = None
        rank = start_rank
        while rank < stop_rank:
            if rank <= head_n:
                base_rank = 1
                block_stop = min(stop_rank, head_n + 1)
                names, counts = self._head_names, self._head_gen_counts
                parts: Optional[List[Tuple[str, str]]] = self._head_parts
            else:
                chunk = (rank - 1 - head_n) // _FILLER_CHUNK
                names, counts = self._chunk(chunk)
                base_rank = head_n + chunk * _FILLER_CHUNK + 1
                block_stop = min(stop_rank, base_rank + _FILLER_CHUNK)
                parts = None
            tally[0] += sum(counts[rank - base_rank:block_stop - base_rank])
            for rb0 in range(rank, block_stop, _DRAW_BATCH):
                rb1 = min(rb0 + _DRAW_BATCH, block_stop)
                if parts is None:
                    labels = [names[r - base_rank][:-4]
                              for r in range(rb0, rb1)]
                else:
                    labels = [parts[r - base_rank][0]
                              for r in range(rb0, rb1)]
                buf, row_of, cands = self._preselect(rb0, labels, buf)
                for p, cand in enumerate(cands):
                    if cand is None:
                        continue
                    r = rb0 + p
                    label = labels[p]
                    lidx = _label_indices(label)
                    reg_p = peak / (r ** decay)
                    if cand is _DENSE:
                        cand = _candidates(
                            label, reg_p,
                            buf[row_of[p], :_grid_total(len(label))])
                    slots = _confirm(lidx, reg_p, *cand)
                    if slots:
                        yield (r, names[r - base_rank], label,
                               "com" if parts is None
                               else parts[r - base_rank][1], lidx, slots)
            rank = block_stop

    def _preselect(self, rb0: int, labels: List[str],
                   buf: Optional[np.ndarray]) -> tuple:
        """Batched registration draws + preselect for ranks from ``rb0``.

        Draws every rank's registration stream into one reused matrix
        (rows grouped by label length) and preselects candidates with a
        single vector compare per length slab, replacing ~5 small numpy
        dispatches per rank with ~3 per batch.  Returns ``(buf, rows,
        cands)``: the (possibly grown) draw matrix; each rank's matrix
        row; and per rank ``None`` (no candidate), ``_DENSE`` (run
        :func:`_candidates` on the stored draw row) or ``(flats,
        uniforms)`` for :func:`_confirm`.
        """
        m = len(labels)
        order = sorted(range(m), key=lambda p: len(labels[p]))
        g_max = _grid_total(len(labels[order[-1]]))
        if buf is None or buf.shape[1] < g_max:
            buf = np.empty((_DRAW_BATCH, g_max))
        rows = [0] * m
        for j, p in enumerate(order):
            rows[p] = j
            r = rb0 + p
            self._stream(self._rank_purpose("reg", r)).uniforms_into(
                r, buf[j, :_grid_total(len(labels[p]))])
        peak = self.config.peak_registration_probability
        decay = self.config.rank_decay
        # np.power can differ from the scalar ``peak / r ** decay`` law
        # in the last ulp, so both derived tests are padded to stay
        # conservative: the preselect must remain a superset (the exact
        # scalar confirm decides), and a rank flagged dense merely runs
        # the exact dense/sparse split inside _candidates
        reg_all = (peak * (1.0 + 1e-9)) * np.power(
            np.array(order, dtype=np.float64) + rb0, -decay)
        dense_all = reg_all * _QUALITY_MAX >= 0.95 * (1.0 - 1e-9)
        cands: List[Optional[tuple]] = [None] * m
        j0 = 0
        while j0 < m:
            length = len(labels[order[j0]])
            j1 = j0 + 1
            while j1 < m and len(labels[order[j1]]) == length:
                j1 += 1
            slab = buf[j0:j1, :_grid_total(length)]
            hits = slab < reg_all[j0:j1, None] * _section_upper(length)
            dense = dense_all[j0:j1]
            if dense.any():
                hits[dense] = False
                for jj in np.nonzero(dense)[0].tolist():
                    cands[order[j0 + jj]] = _DENSE
            rows_h, cols_h = np.nonzero(hits)
            if rows_h.size:
                uv = slab[rows_h, cols_h].tolist()
                rlist = rows_h.tolist()
                clist = cols_h.tolist()
                nh = len(rlist)
                k = 0
                while k < nh:
                    row = rlist[k]
                    k2 = k + 1
                    while k2 < nh and rlist[k2] == row:
                        k2 += 1
                    cands[order[j0 + row]] = (clist[k:k2], uv[k:k2])
                    k = k2
            j0 = j1
        return buf, rows, cands

    def _walk(self, start_rank: int, stop_rank: int, max_rank: int,
              tally: List[int],
              perf: Optional["PerfRegistry"] = None) -> Iterator[tuple]:
        """The walk of ranks ``[start_rank, stop_rank)`` in a ``max_rank``
        universe.

        Yields ``(rank, target, label, suffix, label indices, slots,
        collided, words, vis)`` for every rank that registers a slot:
        ``words`` holds one walk word per wild row, in grid order, and
        ``vis`` each row's visual cost; ``slots`` counts the rank's
        registered slots and ``collided`` those dropped because the typo
        is itself a target of the universe (:meth:`target_rank`
        decides).  One pre-check is a fact of the law: a filler edit
        before the last stem letter leaves the digit run, and so the
        addressed slot (the rank's own), unchanged, and no head label
        ends in a digit, so such a typo can hit no target and is never
        spelled.  Adds every rank's generated count to ``tally[0]``.

        A live walk keeps a reference to every tuple it yields (no
        copy: consumers only read them); when it runs to its end they
        become the world's memo, so the next walk of the same
        ``(start_rank, stop_rank, max_rank)`` yields them again instead
        of drawing (``perf`` then counts ``walk.reused_ranks`` and
        ``walk.reused_rows``).  A walk abandoned midway stores nothing,
        and one past ``_WALK_MEMO_ROWS`` rows lets go of its memo and
        streams on.
        """
        key = (start_rank, stop_rank, max_rank)
        memo = self._walk_memo
        if memo is not None and memo[0] == key:
            _, generated, n_rows, rows = memo
            tally[0] += generated
            if perf is not None:
                perf.count("walk.reused_ranks", stop_rank - start_rank)
                perf.count("walk.reused_rows", n_rows)
            yield from rows
            return

        self._walk_memo = None
        rows: Optional[List[tuple]] = []
        n_rows = 0
        generated0 = tally[0]
        head_n = len(self._head_names)
        letter_final = self._letter_final_heads
        target_rank = self.target_rank
        _, _, index_sh, index_m, _, _ = _SLOT_FIELDS
        index_field = index_m << index_sh
        for r, target, label, suffix, lidx, slots in self._draws(
                start_rank, stop_rank, tally):
            words = self._wild_words(r, slots)
            vis = [v for _, _, v in slots]
            # rows whose edit index is at or past the last stem letter
            # may spell a target
            index_bits = ((len(label) - len(str(r - head_n - 1)) - 1)
                          << index_sh if r > head_n and letter_final else 0)
            dot_suffix = "." + suffix
            collided = [k for k, w in enumerate(words)
                        if w & index_field >= index_bits and target_rank(
                            _spell(label, w) + dot_suffix,
                            max_rank) is not None]
            for k in reversed(collided):
                del words[k]
                del vis[k]
            row = (r, target, label, suffix, lidx, len(slots), len(collided),
                   words, vis)
            if rows is not None:
                rows.append(row)
                n_rows += len(words)
                if n_rows > _WALK_MEMO_ROWS:
                    rows = None
            yield row
        if rows is not None:
            self._walk_memo = (key, tally[0] - generated0, n_rows, rows)

    def _wild_words(self, rank: int, slots: List[tuple]) -> List[int]:
        """The wild-state law: owner, support, MX, DNS and WHOIS codes.

        Reads the rank's "wild" stream (at its churn generation); each
        decision consumes exactly one uniform, so the derivation is
        independent of how consumers iterate.  One walk word per slot of
        :func:`_confirm`'s ``slots``, in grid order: the slot word plus
        the codes at their walk-word offsets: class (indexes
        ``_OWNER_BY_CODE``), owner pick, support (indexes
        ``_SUPPORT_BY_CODE``), mx kind and host pick, has address, ns
        kind and pick, private, proxy pick, whois fields and policy, plus
        the squat bit.  The owner pick is the bulk/medium registrant
        index, or the rank's running count of legitimate or small
        owners; mx kinds are 0 none, 1 parked, 2 web, 3 pool, 4 self,
        5 mx.<target>; ns kinds 0 cesspool, 1 normal, 2 ns.<target>;
        policies 0 none, 1 catch_all, 2 reject_unknown, 3 domain.

        No pick needs a clamp to its last index: a stream uniform is at
        most ``1 - 2**-53``, so ``u * n`` rounds to below ``n``, and
        ``u * total`` to below the last of the inclusive cumulative
        weights ``bisect_right`` searches.
        """
        n = len(slots)
        if not n:
            return []
        config = self.config
        wu = self._stream(self._rank_purpose("wild", rank)).uniforms(
            rank, 12 * n + 4).tolist()
        wi = 0
        def_frac = config.defensive_fraction
        legit_cut = def_frac + config.legitimate_fraction
        bulk_share = config.bulk_share
        medium_cut = bulk_share + config.medium_share
        bulk_cum, bulk_total = self._bulk_cum, self._bulk_total
        bulk_reseller, medium_reseller = (self._bulk_reseller,
                                          self._medium_reseller)
        bulk_words, medium_words = self._bulk_words, self._medium_words
        n_medium = len(medium_reseller)
        mix_sq, mix_rs, mix_lt = (self._support_mixes["squatter"],
                                  self._support_mixes["reseller"],
                                  self._support_mixes["longtail"])
        pool_broken = self._pool_broken
        pool_cum, pool_total = self._pool_cum, self._pool_total
        cess_words, normal_words = _CESSPOOL_NS_WORDS, _NORMAL_NS_WORDS
        host_words, pool_words = _HOST_WORDS, _POOL_WORDS
        proxy_words, fields_words = _PROXY_WORDS, _FIELDS_WORDS
        policy_words, support_words = _POLICY_WORDS, _SUPPORT_WORDS
        full_fields = fields_words[6]
        pick_sh = _WALK_FIELDS["owner_pick"][0]
        n_normal = len(normal_words)
        n_cesspool = len(cess_words)
        n_proxies = len(proxy_words)
        catch_all = config.longtail_catch_all_rate
        reject_cut = catch_all + config.longtail_reject_all_rate
        small_cess = config.small_cesspool_rate
        legit_count = 0
        small_count = 0
        words: List[int] = []
        append = words.append
        for _, slot, _ in slots:
            owner_u = wu[wi]
            wi += 1
            if owner_u < def_frac:
                append(slot | _DEFENSIVE_WORD)
                continue
            if owner_u < legit_cut:
                word = (slot | _LEGIT_WORD | (legit_count << pick_sh)
                        | normal_words[int(wu[wi] * n_normal)])
                wi += 1
                private = wu[wi] < 0.25
                wi += 1
                if private:
                    word |= proxy_words[int(wu[wi] * n_proxies)]
                    wi += 1
                append(word | policy_words[1 if wu[wi] < 0.1 else 2])
                wi += 1
                legit_count += 1
                continue

            # squatters ------------------------------------------------------
            squatter_u = wu[wi]
            wi += 1
            if squatter_u < bulk_share:
                pick = bisect_right(bulk_cum, wu[wi] * bulk_total)
                wi += 1
                cls, reseller = 2, bulk_reseller[pick]
                word = slot | bulk_words[pick]
            elif squatter_u < medium_cut:
                pick = int(wu[wi] * n_medium)
                wi += 1
                cls, reseller = 3, medium_reseller[pick]
                word = slot | medium_words[pick]
            else:
                cls, reseller = 4, False
                word = slot | _SMALL_WORD | (small_count << pick_sh)
                small_count += 1

            mix_names, mix_cum, mix_total = (
                mix_lt if cls == 4 else (mix_rs if reseller else mix_sq))
            support = mix_names[bisect_right(mix_cum, wu[wi] * mix_total)]
            wi += 1

            if cls != 4:
                cesspool = True
            else:
                cesspool = wu[wi] < small_cess
                wi += 1
            if cesspool:
                word |= cess_words[int(wu[wi] * n_cesspool)]
            else:
                word |= normal_words[int(wu[wi] * n_normal)]
            wi += 1

            policy = 0
            if support != 0:
                if cls != 4:
                    if support == 1 or support == 2:
                        # parked / web host
                        word |= host_words[support][int(wu[wi] * 3)]
                    else:
                        mx_pick = bisect_right(pool_cum, wu[wi] * pool_total)
                        word |= pool_words[mx_pick]
                        if pool_broken[mx_pick]:
                            support = 4
                    wi += 1
                else:
                    word |= _ADDR_BIT
                    if wu[wi] < 0.1:
                        word |= _SELF_MX_WORD
                    wi += 1
                    if support != 2 and support != 1:
                        roll = wu[wi]
                        wi += 1
                        if roll < catch_all:
                            policy = 1
                        elif roll < reject_cut:
                            policy = 2
                        else:
                            policy = 3
                        word |= policy_words[policy]

            if cls != 4:
                privacy_rate = (0.05 if reseller
                                else config.bulk_privacy_rate)
            elif policy == 1:
                privacy_rate = 0.75
            else:
                privacy_rate = config.small_privacy_rate
            private = wu[wi] < privacy_rate
            wi += 1
            if private:
                word |= proxy_words[int(wu[wi] * n_proxies)]
                wi += 1
            elif wu[wi] >= 0.8:
                wi += 1
                word |= fields_words[2 + int(wu[wi] * 4)]
                wi += 1
            else:
                wi += 1
                word |= full_fields
            append(word | support_words[support])
        return words

    def _state(self, rank: int, target: str, domain: str,
               word: int) -> DomainState:
        """One walk row in string form: the walk word's codes mapped."""
        (op_sh, op_m, index_sh, index_m, char_sh, char_m, cls_sh, cls_m,
         pick_sh, pick_m, mx_sh, mx_m, mxp_sh, mxp_m, ns_sh, ns_m, nsp_sh,
         nsp_m, proxy_sh, proxy_m, fields_sh, fields_m, policy_sh, policy_m,
         sup_sh, sup_m) = _STATE_FIELDS
        op, index, a = ((word >> op_sh) & op_m, (word >> index_sh) & index_m,
                        (word >> char_sh) & char_m)
        cls, pick = (word >> cls_sh) & cls_m, (word >> pick_sh) & pick_m
        mx, mx_pick = (word >> mx_sh) & mx_m, (word >> mxp_sh) & mxp_m
        ns, ns_pick = (word >> ns_sh) & ns_m, (word >> nsp_sh) & nsp_m
        private = bool(word & _PRIVATE_BIT)
        if cls == 0:
            owner_id, profile = f"owner-{target}", ""
        elif cls == 1:
            owner_id, profile = f"legit-r{rank}-{pick}", ""
        elif cls == 2:
            owner_id = self._bulk_ids[pick]
            profile = _PROFILES[self._bulk_reseller[pick]]
        elif cls == 3:
            owner_id = self._medium_ids[pick]
            profile = _PROFILES[self._medium_reseller[pick]]
        else:
            owner_id, profile = f"small-r{rank}-{pick}", "collector"
        if mx == 0:
            mx_domain = None
        elif mx <= 3:
            mx_domain = self._mx_hosts[mx][mx_pick]
        else:
            mx_domain = domain if mx == 4 else f"mx.{target}"
        return DomainState(
            domain=domain, target=target, rank=rank, edit_op=_OP_NAMES[op],
            edit_index=index, edit_char=DOMAIN_ALPHABET[a] if op >= 2 else "",
            owner_id=owner_id, owner_type=_OWNER_BY_CODE[cls],
            profile=profile,
            support=_SUPPORT_BY_CODE[(word >> sup_sh) & sup_m],
            mx_domain=mx_domain, has_address=bool(word & _ADDR_BIT),
            nameserver=(f"ns.{target}" if ns == 2 else
                        (_CESSPOOL_NAMESERVERS, _NORMAL_NAMESERVERS)[ns][
                            ns_pick]),
            private_whois=private,
            privacy_proxy=(PRIVACY_PROXIES[(word >> proxy_sh) & proxy_m]
                           if private else None),
            whois_fields_filled=(word >> fields_sh) & fields_m,
            longtail_policy=_POLICIES[(word >> policy_sh) & policy_m])

    # -- the streaming scan ------------------------------------------------

    def scan_ranks(self, start_rank: int, stop_rank: int, *,
                   max_rank: Optional[int] = None,
                   exclude: Iterable[str] = (),
                   aggregates: Optional[ScanAggregates] = None,
                   retain: Optional[list] = None,
                   perf: Optional["PerfRegistry"] = None) -> ScanAggregates:
        """Scan ranks ``[start_rank, stop_rank)`` into streaming aggregates.

        ``max_rank`` is the size of the world's target universe (candidate
        strings colliding with a target domain are never wild typo
        registrations); it defaults to ``stop_rank - 1`` and must be held
        constant across the shards of one scan.  ``retain`` is the opt-in
        result sink for small scans: when given a list, each observation
        is appended as ``(DomainState, observed SmtpSupport)``; on the
        paper-scale path nothing per-result is kept.

        Setup is O(1) and the walk builds only this window's filler
        chunks: target collisions resolve through the
        :meth:`target_rank` law, never a materialized universe, so a
        shard's cost depends on its own width — not on ``stop_rank`` or
        ``max_rank``.  ``perf`` (optional) accumulates
        ``scan.setup_seconds``, ``scan.draw_seconds`` (the walk:
        registration draw, wild-state law and collision rule, or on a
        reused walk the memo read alone) and ``scan.probe_seconds``
        (probe and fold) phase timers; when omitted the loop pays only a
        dead branch per rank.  The walk is shared: when the world's last
        walk covered the same ``(start_rank, stop_rank, max_rank)`` the
        scan reads it instead of walking again (see :meth:`_walk`).

        The probe emulation mirrors :meth:`EcosystemScanner._probe`
        against the host behaviours ``build_internet`` attaches: per
        attempt a timeout draw, then a network-error draw, then either a
        deterministic refusal (no listener) or the listening server's
        STARTTLS classification.  Hosts whose behaviour is deterministic
        (defensive mail, parked or web-only hosts) resolve without
        consuming probe uniforms.
        """
        timing = perf is not None
        entry_t = perf_counter() if timing else 0.0
        aggregates = aggregates if aggregates is not None else ScanAggregates()
        max_rank = max_rank or (stop_rank - 1)
        excluded = {domain.lower() for domain in exclude}
        spell_all = bool(excluded) or retain is not None
        attempts = self.probe_attempts
        small_timeout = self.config.longtail_timeout_probability
        small_neterr = self.config.longtail_network_error_probability
        support_by_code = _SUPPORT_BY_CODE
        mx_keys = self._mx_keys
        owner_ids = (None, None, self._bulk_ids, self._medium_ids)
        (cls_sh, cls_m, pick_sh, pick_m, sup_sh, sup_m, mx_sh, mx_m, mxp_sh,
         mxp_m) = _fields("owner", "owner_pick", "support", "mx", "mx_pick")
        addr_bit, private_bit = _ADDR_BIT, _PRIVATE_BIT
        tally = [0]
        registered_n = 0
        # categorical folds are flat index lists; dict folds only where the
        # key space is open-ended (MX domains, owners, targets)
        support_l = [0] * 6
        truth_l = [0] * 6
        owner_type_l = [0] * 5
        mx_c: Dict[str, int] = {}
        owner_dom_c: Dict[str, int] = {}
        per_target_c: Dict[str, int] = {}
        private_n = 0
        implicit_n = 0
        draw_s = 0.0
        probe_s = 0.0
        setup_s = (perf_counter() - entry_t) if timing else 0.0

        mark = perf_counter() if timing else 0.0
        for r, target, label, suffix, _, n_slots, _, words, _ in self._walk(
                start_rank, stop_rank, max_rank, tally, perf):
            if timing:
                t1 = perf_counter()
                draw_s += t1 - mark
            dot_suffix = "." + suffix
            domain = ""
            pu: Optional[list] = None
            pi = 0
            scanned = 0
            for w in words:
                # the walk word spells its domain only where a fold needs
                # it: exclusion, retained states and self-hosted MX
                if spell_all:
                    domain = _spell(label, w) + dot_suffix
                    if domain in excluded:
                        continue
                cls = (w >> cls_sh) & cls_m
                support = (w >> sup_sh) & sup_m
                # probe emulation (all codes: 0 NO_DNS, 1 NO_INFO,
                # 2 NO_EMAIL, 3 PLAIN, 4 STARTTLS_ERRORS, 5 STARTTLS_OK)
                if support == 0:
                    observed = 0
                elif cls == 0:
                    observed = 5
                elif support == 2 or (cls != 4 and cls != 1
                                      and support == 1):
                    # web-parked or refused hosts answer deterministically
                    observed = support
                else:
                    if cls == 1:
                        timeout_p, neterr_p = 0.05, 0.03
                        starttls, broken = True, False
                        listener = True
                    elif cls != 4:
                        timeout_p, neterr_p = 0.03, 0.02
                        starttls, broken = True, support == 4
                        listener = True
                    elif support == 1:
                        timeout_p, neterr_p = 0.97, 0.03
                        listener = False
                    else:
                        timeout_p, neterr_p = small_timeout, small_neterr
                        starttls, broken = support != 3, support == 4
                        listener = True
                    if pu is None:
                        pu = self._stream(self._rank_purpose(
                            "probe", r)).uniforms(
                                r, 2 * attempts * n_slots + 2).tolist()
                    observed = -1
                    refused = False
                    for _ in range(attempts):
                        if pu[pi] < timeout_p:
                            pi += 1
                            continue
                        pi += 1
                        if pu[pi] < neterr_p:
                            pi += 1
                            continue
                        pi += 1
                        if not listener:
                            refused = True
                            continue
                        observed = 4 if broken else (5 if starttls else 3)
                        break
                    if observed < 0:
                        observed = 2 if refused else 1
                # fold ----------------------------------------------------
                scanned += 1
                support_l[observed] += 1
                truth_l[support] += 1
                mx = (w >> mx_sh) & mx_m
                if mx:
                    if mx <= 3:
                        key = mx_keys[mx][(w >> mxp_sh) & mxp_m]
                    elif mx == 5:
                        key = target
                    else:
                        key = domain or _spell(label, w) + dot_suffix
                    mx_c[key] = mx_c.get(key, 0) + 1
                elif w & addr_bit:
                    implicit_n += 1
                if cls == 2 or cls == 3:
                    owner_id = owner_ids[cls][(w >> pick_sh) & pick_m]
                    owner_dom_c[owner_id] = owner_dom_c.get(owner_id, 0) + 1
                owner_type_l[cls] += 1
                if w & private_bit:
                    private_n += 1
                if retain is not None:
                    retain.append((self._state(r, target, domain, w),
                                   support_by_code[observed]))
            if scanned:
                registered_n += scanned
                per_target_c[target] = per_target_c.get(target, 0) + scanned
            if timing:
                mark = perf_counter()
                probe_s += mark - t1
        if timing:
            draw_s += perf_counter() - mark

        aggregates.fold_flat(
            tally[0], registered_n, support_l, truth_l, owner_type_l,
            _SUPPORT_VALUE_BY_CODE, _OWNER_VALUE_BY_CODE,
            mx_c, owner_dom_c, per_target_c, private_n, implicit_n)
        if timing:
            perf.add_seconds("scan.setup_seconds", setup_s)
            perf.add_seconds("scan.draw_seconds", draw_s)
            perf.add_seconds("scan.probe_seconds", probe_s)
            perf.count("scan.ranks", stop_rank - start_rank)
        return aggregates

    # -- the feature sweep -------------------------------------------------

    def featurize_ranks(self, start_rank: int, stop_rank: int, *,
                        max_rank: Optional[int] = None,
                        on_block=None, block_records: int = 65536,
                        perf: Optional["PerfRegistry"] = None
                        ) -> Tuple[int, int, int]:
        """Stream packed feature rows for every wild ctypo in the window.

        The columnar consumer of the walk :meth:`scan_ranks` probes: the
        same registration draw, wild-state codes and collision rule, but
        instead of probing it packs one ``(int64 word, visual float)``
        pair per wild registered ctypo (see ``FEATURE_PACK_SHIFTS``; the
        word is the walk word masked, plus the typo's lexical counts)
        plus per-rank shared context, batched into blocks for vectorized
        featurization downstream.  ``on_block`` receives ``(rank_l,
        nrows_l, len_l, tdigit_l, tadj_l, packed_l, vis_l)`` — the first
        five parallel per contributing rank, the last two per row —
        whenever ``block_records`` rows accumulate.

        Returns ``(rows, excluded, generated)``; ``excluded`` counts
        registrations skipped because the candidate string collides with
        a target domain of the ``max_rank`` universe.  Bounded memory:
        per-block lists, a capped stem cache, the window's own filler
        chunks and a capped walk memo only.  ``perf`` (optional)
        accumulates ``featurize.setup_seconds`` and
        ``featurize.walk_seconds``: the walk and the packing, or on a
        reused walk (the world's last walk covered the same window, see
        :meth:`_walk`) the memo read and the packing alone.
        """
        timing = perf is not None
        entry_t = perf_counter() if timing else 0.0
        max_rank = max_rank or (stop_rank - 1)
        lex_bits = _IDX_LEX
        feature_mask = _FEATURE_MASK
        op_sh, op_m, index_sh, index_m, char_sh, char_m = _SLOT_FIELDS
        _char_tables()
        adj_t = _ADJ_LIST
        tally = [0]

        rank_l: List[int] = []
        nrows_l: List[int] = []
        len_l: List[int] = []
        tdigit_l: List[float] = []
        tadj_l: List[float] = []
        packed_l: List[int] = []
        vis_l: List[float] = []
        pack_append = packed_l.append

        n_rows = 0
        n_excluded = 0
        setup_s = (perf_counter() - entry_t) if timing else 0.0

        for r, _, _, _, lidx, _, collided, words, vis in self._walk(
                start_rank, stop_rank, max_rank, tally, perf):
            n_excluded += collided
            if not words:
                continue
            # the target's lexical counts, packed at their word offsets;
            # each row adjusts them by the chars its edit removes/adds
            lex = sum(map(lex_bits.__getitem__, lidx))
            for w in words:
                op = (w >> op_sh) & op_m
                if op == 1:
                    pack_append(lex | (w & feature_mask))
                elif op == 0:
                    pack_append((lex - lex_bits[lidx[(w >> index_sh)
                                                     & index_m]])
                                | (w & feature_mask))
                elif op == 2:
                    pack_append((lex - lex_bits[lidx[(w >> index_sh)
                                                     & index_m]]
                                 + lex_bits[(w >> char_sh) & char_m])
                                | (w & feature_mask))
                else:
                    pack_append((lex + lex_bits[(w >> char_sh) & char_m])
                                | (w & feature_mask))
            vis_l.extend(vis)
            L = len(lidx)
            n_rows += len(words)
            rank_l.append(r)
            nrows_l.append(len(words))
            len_l.append(L)
            tdigit_l.append(((lex >> 14) & 63) / L)
            tadj_l.append(sum([adj_t[x][y] for x, y in zip(lidx, lidx[1:])])
                          / (L - 1) if L > 1 else 0.0)
            if len(packed_l) >= block_records and on_block is not None:
                on_block((rank_l, nrows_l, len_l, tdigit_l, tadj_l,
                          packed_l, vis_l))
                rank_l, nrows_l, len_l = [], [], []
                tdigit_l, tadj_l = [], []
                packed_l, vis_l = [], []
                pack_append = packed_l.append

        if packed_l and on_block is not None:
            on_block((rank_l, nrows_l, len_l, tdigit_l, tadj_l,
                      packed_l, vis_l))
        if timing:
            perf.add_seconds("featurize.setup_seconds", setup_s)
            perf.add_seconds("featurize.walk_seconds",
                             perf_counter() - entry_t - setup_s)
            perf.count("featurize.ranks", stop_rank - start_rank)
            perf.count("featurize.rows", n_rows)
        return n_rows, n_excluded, tally[0]


def _cumulative(weights: List[float]) -> Tuple[List[float], float]:
    """(inclusive cumulative sums, total) for bisect-based weighted draws."""
    cum: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cum.append(acc)
    if acc <= 0:
        raise ValueError("weights must have a positive sum")
    return cum, acc
