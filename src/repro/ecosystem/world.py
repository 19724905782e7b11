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

One walk derives all of it, a batch of up to 256 ranks at a time as
numpy columns (:meth:`WorldModel._walk`): the registration draw
(:meth:`WorldModel._registered`, confirmed by :func:`_confirm_block`),
the wild-state law (:meth:`WorldModel._wild_block`, small integer codes
packed into one int64 walk word per row), and the membership oracle
(:meth:`WorldModel.target_rank`, which drops a candidate that is itself
a target).  Two consumers read it: :meth:`WorldModel.scan_ranks` probes
the rows (:meth:`WorldModel._probe_block`) and folds them with
``np.bincount``, and :meth:`WorldModel.featurize_ranks` masks them into
feature words.  A world keeps the walk of the last window it walked
(its blocks: a word and a visual cost per row, a few integers per
rank), so the second consumer of one window reads it instead of walking
again.  One rank at a time, the scalar laws the kernels vectorise run
instead: :meth:`WorldModel.registered_slots` settles the rank's
preselected slots with :func:`_confirm`, the one registration rule at
every rank, and :meth:`WorldModel.rank_states` adds the wild-state law
(:meth:`WorldModel._wild_words`) and maps the words to strings, the
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

import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

from repro.core.targets import EMAIL_TARGETS
from repro.core.typogen import (
    DOMAIN_ALPHABET,
    TypoCandidate,
    enumerate_edit_ops,
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
        caller-owned destination lets the walk draw many ranks into one
        buffer and preselect with a single vector compare."""
        self._seek(rank, 0)
        return self._gen.random(out=out)

    def uniforms_at(self, rank: int, start: int, count: int) -> np.ndarray:
        """Uniforms ``start`` to ``start + count - 1`` of the rank's
        stream, without drawing those before: Philox makes four per
        counter step, so seek to step ``start // 4`` and drop the first
        ``start % 4``."""
        self._seek(rank, start // 4)
        skip = start % 4
        return self._gen.random(skip + count)[skip:]

    def _seek(self, rank: int, step: int) -> None:
        counter = self._counter
        counter[0] = step
        counter[1] = 0
        counter[2] = 0
        counter[3] = rank
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._bitgen.state = self._state


# -- the registration grid ----------------------------------------------------
#
# The raw DL-1 grid of a label of length L is laid out flat as
#   [ deletions: L ][ transpositions: L-1 ][ substitutions: L*A ][ additions: (L+1)*A ]
# position-major with the alphabet innermost — exactly the order
# ``enumerate_edit_ops`` walks.  The registration law (``_confirm``, and
# ``_confirm_block`` over many ranks) reproduces its validity/dedup skip
# rules slot by slot and decodes a flat index to ``(op, index, char)``
# arithmetically.  The registration uniforms are drawn over the *raw*
# grid (invalid slots included), which makes the stream independent of
# who reads it.

_ALPHA_SIZE = len(DOMAIN_ALPHABET)
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

#: the same parts as arrays, for the block kernel's gathers
_NORMAL_NS_ARRAY = np.array(_NORMAL_NS_WORDS, dtype=np.int64)
_CESSPOOL_NS_ARRAY = np.array(_CESSPOOL_NS_WORDS, dtype=np.int64)
_HOST_ARRAY = np.array([(0, 0, 0), *_HOST_WORDS[1:]], dtype=np.int64)
_POOL_ARRAY = np.array(_POOL_WORDS, dtype=np.int64)
_PROXY_ARRAY = np.array(_PROXY_WORDS, dtype=np.int64)
_FIELDS_ARRAY = np.array(_FIELDS_WORDS, dtype=np.int64)
_POLICY_ARRAY = np.array(_POLICY_WORDS, dtype=np.int64)
_SUPPORT_ARRAY = np.array(_SUPPORT_WORDS, dtype=np.int64)

#: rows a walk keeps for a second consumer of its window (the default
#: ``block_records``); a wider window streams without a memo.  The memo
#: holds the walk's blocks: 16 bytes a row (word and visual cost) plus
#: about 60 a rank, so at most ~1.2 MB
_WALK_MEMO_ROWS = 1 << 16

#: ranks per batched registration draw in the walk — large enough to
#: amortize the per-batch numpy dispatch, small enough that the draw
#: matrix stays a few MB
_DRAW_BATCH = 256


class _WalkBlock(NamedTuple):
    """One draw batch of the walk as numpy columns: per rank that
    registers a slot (ascending), then per wild row (rank-major, each
    rank's rows in grid order)."""

    ranks: np.ndarray       # int64
    slots: np.ndarray       # int64: registered slots
    collided: np.ndarray    # int64: of those, typos that are targets
    nrows: np.ndarray       # int64: wild rows, slots - collided
    lengths: np.ndarray     # int64: target label length
    codes: np.ndarray       # uint8: target label, as _label_codes
    words: np.ndarray       # int64: one walk word per wild row
    vis: np.ndarray         # float64: each row's visual cost


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


def _generated_count(label: str) -> int:
    """``len(enumerate_edit_ops(label))``, in closed form for the labels
    a world's targets have (hyphen-free, 2-62 characters): only the
    adjacent-duplicate dedup bites, once in the deletion section and
    once in transpositions.  Any other label is enumerated."""
    length = len(label)
    if 2 <= length <= 62 and "-" not in label:
        dups = 0
        prev = label[0]
        for ch in label[1:]:
            if ch == prev:
                dups += 1
            prev = ch
        return 74 * length + 32 - 2 * dups
    return len(enumerate_edit_ops(label))


def _label_indices(label: str) -> List[int]:
    """The label's alphabet-index list, the confirm step's input."""
    lidx = [_CODE2IDX_LIST[b] for b in label.encode("ascii")]
    if min(lidx) < 0:
        raise ValueError(f"label {label!r} has characters outside the "
                         "domain alphabet")
    return lidx


def _confirm(lidx: List[int], reg_p: float, cand_flats: List[int],
             uvals: List[float]) -> List[tuple]:
    """The registration law on candidate raw-grid slots, one rank.

    Slot ``cand_flats[k]`` with uniform ``uvals[k]`` registers iff it is
    valid (the skip rules of ``enumerate_edit_ops``) and ``u < min(0.95,
    reg_p * quality)``.  ``cand_flats`` need only be a superset of the
    registrations, such as the preselect ``u < reg_p * upper`` with
    per-section ``upper >= quality`` (:func:`_section_upper`), which
    holds whether or not the cap binds.  Each kept slot comes back as
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
        if uvals[k] >= min(0.95, reg_p * q):
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


# -- the columnar kernels ------------------------------------------------------
#
# The walk evaluates the registration confirm, the wild-state law and the
# probe over a block of ranks as numpy columns.  Each kernel is the scalar
# law (``_confirm``, ``WorldModel._wild_words``, the probe attempts)
# written over arrays in the scalar code's operation order, so every
# float compares bit for bit; the property suite pins kernel == scalar.
# One-rank calls (``registered_slots``, ``rank_states``) run the scalar
# law itself: a kernel call costs tens of numpy dispatches, five to
# thirty times one rank's scalar work.

#: label alphabet indices are padded with this code, which matches no
#: character; the kernels' tables carry an empty row and column for it
_PAD = _ALPHA_SIZE
#: byte -> alphabet index (``_PAD`` for the pad byte 0, -1 outside)
_BYTE_CODES = np.full(256, -1, dtype=np.int16)
_BYTE_CODES[0] = _PAD
_BYTE_CODES[:128][_CODE2IDX >= 0] = _CODE2IDX[_CODE2IDX >= 0]

#: most elements one kernel pass holds per array (candidate slots, or
#: stream positions of the wild-state law and the probe): a dense batch
#: splits into passes, so the temporaries stay near a megabyte each
_PASS_CELLS = 1 << 14

_KERNEL_TABLES: Dict[str, np.ndarray] = {}


def _kernel_table(name: str) -> np.ndarray:
    """The kernels' character tables, built once: ``adj`` and ``cost``
    over the alphabet plus the pad code, and ``lex`` (the feature word's
    lexical bits by code)."""
    if not _KERNEL_TABLES:
        adj, cost = _char_tables()
        adj_x = np.zeros((_PAD + 1, _PAD + 1), dtype=bool)
        adj_x[:_PAD, :_PAD] = adj
        cost_x = np.zeros((_PAD + 1, _PAD + 1))
        cost_x[:_PAD, :_PAD] = cost
        _KERNEL_TABLES.update(adj=adj_x, cost=cost_x,
                              lex=np.array(_IDX_LEX + [0], dtype=np.int64))
    return _KERNEL_TABLES[name]


def _label_codes(labels: List[str]) -> np.ndarray:
    """``(len(labels), max length + 3)`` uint8 alphabet indices, label
    ``j`` at columns ``1..L`` and ``_PAD`` around it, so a slot at index
    ``i`` reads ``lidx[i - 1]``, ``lidx[i]`` and ``lidx[i + 1]`` at
    columns ``i``, ``i + 1`` and ``i + 2`` without a bounds test."""
    width = max(map(len, labels)) + 3
    raw = "".join(("\0" + label).ljust(width, "\0") for label in labels)
    codes = _BYTE_CODES[np.frombuffer(raw.encode("ascii", "replace"),
                                      dtype=np.uint8)]
    if codes.min() < 0:
        for label in labels:
            _label_indices(label)           # raises on the bad label
    return codes.astype(np.uint8).reshape(len(labels), width)


def _grid_totals(lengths: np.ndarray) -> np.ndarray:
    """``_grid_total`` of each label length."""
    return (lengths + np.maximum(lengths - 1, 0)
            + (2 * lengths + 1) * _ALPHA_SIZE)


_LENGTH_TABLES: List[np.ndarray] = []


def _length_tables(max_length: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(upper, posw)`` by label length ``L`` up to ``max_length``:
    ``_section_upper(L)`` zero past the grid's end, and
    ``_position_weights(L)``."""
    if not _LENGTH_TABLES or _LENGTH_TABLES[1].shape[0] <= max_length:
        size = max(max_length, 16) + 1
        upper = np.zeros((size, _grid_total(size - 1)))
        posw = np.zeros((size, size + 1))
        for length in range(size):
            upper[length, :_grid_total(length)] = _section_upper(length)
            posw[length, :length + 1] = _position_weights(length)
        _LENGTH_TABLES[:] = [upper, posw]
    return _LENGTH_TABLES[0], _LENGTH_TABLES[1]


def _confirm_block(codes: np.ndarray, lengths: np.ndarray,
                   reg_p: np.ndarray, row: np.ndarray, flat: np.ndarray,
                   u: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """:func:`_confirm` over candidate slots of many ranks at once.

    ``codes`` are the ranks' :func:`_label_codes`, ``lengths`` and
    ``reg_p`` per rank (``reg_p`` from the scalar ``peak / r ** decay``);
    ``row``, ``flat`` and ``u`` per candidate: its rank's row, raw-grid
    index and registration uniform.  A slot registers iff it is valid
    and ``u < min(0.95, reg_p * quality)``, the rule of the scalar law;
    the cap binds only at dense ranks (``reg_p * _QUALITY_MAX >= 0.95``).
    Returns ``(kept, slot words, visual costs)``, the last two for kept
    slots only.
    """
    A = _ALPHA_SIZE
    hyphen = _HYPHEN_IDX
    L = lengths[row]
    n_trans = np.maximum(L - 1, 0)
    sub_base = L + n_trans
    add_base = sub_base + L * A
    is_del = flat < L
    is_trans = ~is_del & (flat < sub_base)
    is_add = flat >= add_base
    is_sub = ~is_add & (flat >= sub_base)

    def by_op(deletion, transposition, substitution, addition):
        return np.where(is_del, deletion, np.where(
            is_trans, transposition,
            np.where(is_sub, substitution, addition)))

    i_edit, a = np.divmod(np.where(is_add, flat - add_base, flat - sub_base),
                          A)
    i = by_op(flat, flat - L, i_edit, i_edit)
    a = by_op(0, 0, a, a)
    prev = codes[row, i]                # lidx[i - 1]
    cur = codes[row, i + 1]             # lidx[i]
    nxt = codes[row, i + 2]             # lidx[i + 1]
    first = i == 0
    edge_hyphen = (a == hyphen) & (first | (i == L - 1 + is_add))
    valid = by_op(
        (L >= 2) & (L <= 64) & (cur != prev) & ~(first & (nxt == hyphen))
        & ~((i == L - 1) & (prev == hyphen)),
        (L <= 63) & (cur != nxt) & ~(first & (nxt == hyphen))
        & ~((i == n_trans - 1) & (cur == hyphen)),
        (L <= 63) & (a != cur) & ~edge_hyphen,
        (L <= 62) & (a != prev) & ~edge_hyphen)
    adj, cost = _kernel_table("adj"), _kernel_table("cost")
    next_eq = a == cur
    ff_sub = adj[cur, a]
    ff = by_op(True, True, ff_sub, next_eq | adj[prev, a] | ff_sub)
    posw = _length_tables(int(lengths.max()))[1][L, i]
    vis = by_op(np.where(cur == nxt, 0.3, 0.9), 0.5, cost[cur, a],
                np.where(next_eq, 0.3, 1.0)) * posw
    base = by_op(6.0 * 1.6, 5.0 * 1.6, np.where(ff, 1.6, 1.0),
                 0.45 * np.where(ff, 1.6, 1.0))
    inv_len = 3.0 / np.maximum(1, lengths)
    q = base * np.maximum(0.2, 1.5 - vis * inv_len[row])
    kept = valid & (u < np.minimum(0.95, reg_p[row] * q))
    op_sh, _, index_sh, _, char_sh, _ = _SLOT_FIELDS
    op = by_op(0, 1, 2, 3)
    words = ((op << op_sh) | (i << index_sh) | (a << char_sh)
             | np.where(ff, _ADJACENT_BIT, 0))
    return kept, words[kept], vis[kept]


_DIGIT_CODES = np.array([c.isdigit() for c in DOMAIN_ALPHABET])
_LETTER_CODES = np.array([c.isalpha() for c in DOMAIN_ALPHABET])


def _may_collide(words: np.ndarray, lengths: np.ndarray,
                 digits: np.ndarray) -> np.ndarray:
    """Which filler typos can be a target at all (a superset; the
    membership oracle decides).

    Filler label ``S + D``: ``S`` letters, ``D`` the index's ``d``
    decimal digits; no head label ends in a digit.  A typo ending in a
    digit can only be the filler ``S' + D'`` with ``S'`` letters, and
    ``D' != D`` (``D`` addresses the rank's own slot, whose name the
    typo is not).  That takes a digit deleted, two swapped, or one
    inserted or substituted at or past the last stem letter, or a
    letter replacing the first digit.  A typo ending in anything else
    can only be a head: the last digit substituted, a character
    appended, or, when ``d == 1``, the digit deleted or swapped with
    the last letter.  No other edit can hit a target.
    """
    op_sh, op_m, index_sh, index_m, char_sh, char_m = _SLOT_FIELDS
    op = (words >> op_sh) & op_m
    i = (words >> index_sh) & index_m
    a = (words >> char_sh) & char_m
    stem = lengths - digits
    digit = _DIGIT_CODES[a]
    return np.where(op == 0, i >= stem, np.where(
        op == 1, (i >= stem) | ((digits == 1) & (i == stem - 1)), np.where(
            op == 2, (i >= stem - 1) & (digit | (i == lengths - 1)
                                        | ((i == stem) & _LETTER_CODES[a])),
            (i >= stem) & (digit | (i == lengths)))))


def _pick(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``table[int(x * len(table))]`` per uniform ``x``."""
    return table[(x * len(table)).astype(np.intp)]


class _Bisect:
    """``values[bisect_right(cum, x * total)]`` per uniform ``x``.

    The index is the number of cumulative weights at or below ``x *
    total``, so the value is ``values[0]`` plus one integer step per
    weight passed where the value changes: a handful of vector compares
    instead of a binary search per element.
    """

    def __init__(self, cum, total: float, values) -> None:
        values = [int(v) for v in values]
        self.total = total
        self.base = values[0]
        self.steps = [(c, b - a) for c, a, b in zip(cum, values, values[1:])
                      if b != a]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = x * self.total
        out = np.full(v.shape, self.base, dtype=np.int64)
        for threshold, step in self.steps:
            passed = v >= threshold
            out += passed if step == 1 else passed * step
        return out


def _spans(sizes: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Consecutive ``[i0, i1)`` runs of ``sizes`` summing to at most
    ``budget`` (an entry past it alone gets a run of its own)."""
    ends = np.cumsum(sizes)
    i0, done = 0, 0
    while i0 < len(ends):
        i1 = max(i0 + 1, int(np.searchsorted(ends, done + budget, "right")))
        yield i0, i1
        done = int(ends[i1 - 1])
        i0 = i1


def _hop(step: np.ndarray, bases: np.ndarray, counts: np.ndarray,
         kinds: Optional[np.ndarray] = None) -> np.ndarray:
    """Where each row starts in the stream its rank's rows read in turn.

    A rank's first row starts at its base, and every later row where the
    one before it stopped: ``step[start]`` uniforms on, or
    ``step[kind, start]`` for rows of several kinds.  One vector hop per
    row index, across every rank at once; starts come back rank-major.
    """
    starts = np.empty(int(counts.sum()), dtype=np.int64)
    first = np.cumsum(counts) - counts
    cur = bases.astype(np.int64)
    live = np.flatnonzero(counts)
    k = 0
    while live.size:
        rows = first[live] + k
        pos = cur[live]
        starts[rows] = pos
        cur[live] = pos + (step[pos] if kinds is None
                           else step[kinds[rows], pos])
        k += 1
        live = live[counts[live] > k]
    return starts


def _probe_table(uniforms: np.ndarray, size: int, attempts: int,
                 timeout_p: float, neterr_p: float, listener: bool
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """A probe's uniform count and outcome from each stream position.

    The scan's attempt loop, started at every position ``< size`` of
    ``uniforms`` at once: per attempt a timeout draw, then a
    network-error draw; an attempt past both reaches the host, which
    ends the probe when a server listens and is refused otherwise.
    Returns ``(consumed, reached)``: ``reached`` is the listener's
    success, or for a refusing host whether any attempt was refused.
    """
    start = np.arange(size)
    pos = start.copy()
    reached = np.zeros(size, dtype=bool)
    for _ in range(attempts):
        timeout = uniforms[pos] < timeout_p
        step = 2 - timeout
        if listener:
            step *= ~reached
        reached |= ~timeout & (uniforms[pos + 1] >= neterr_p)
        pos += step
    return pos - start, reached


# -- filler targets ------------------------------------------------------------

_FILLER_CHUNK = 1024

#: filler chunks whose syllable draws one world keeps for stem compares;
#: the cache clears when full, so a 10x-scale universe stays bounded
_STEM_CACHE_CAP = 4096

#: onset+vowel syllables, flat-indexed ``onset * n_vowels + vowel``
_SYL_TABLE = [onset + vowel for onset in _PRONOUNCEABLE_ONSETS
              for vowel in _PRONOUNCEABLE_VOWELS]
_SYL_INDEX = {syl: i for i, syl in enumerate(_SYL_TABLE)}

#: a 2-3 syllable stem, each syllable an onset then its one vowel; no
#: onset holds a vowel, so a stem parses into syllables in one way only
_STEM_RE = re.compile("({0})({0})({0})?".format("(?:{})[{}]".format(
    "|".join(_PRONOUNCEABLE_ONSETS), "".join(_PRONOUNCEABLE_VOWELS))))


def _stem_code(stem: str) -> Optional[int]:
    """The packed code of ``stem`` (as :func:`_stem_codes` packs it), or
    ``None`` when no filler can have it as its stem."""
    parsed = _STEM_RE.fullmatch(stem)
    if parsed is None:
        return None
    first, second, third = (_SYL_INDEX.get(syl, -1) for syl in parsed.groups())
    n = len(_SYL_TABLE)
    return (first * n + second) * (n + 1) + third + 1


def _stem_codes(syllables: Tuple[array, bytes]) -> np.ndarray:
    """One chunk's packed stem codes, int32: ``(s1 * n + s2) * (n + 1)``
    plus ``s3 + 1`` when there is a third syllable s3."""
    picks = np.frombuffer(syllables[0], dtype=np.uint16).reshape(-1, 3)
    n = len(_SYL_TABLE)
    return ((picks[:, 0].astype(np.int32) * n + picks[:, 1]) * (n + 1)
            + np.frombuffer(syllables[1], dtype=np.bool_) * (picks[:, 2] + 1))


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


def _filler_chunk(chunk: int, syllables: Tuple[array, bytes]) -> List[str]:
    """The names of filler indices [chunk*N, (chunk+1)*N).

    Chunked so a 100k-target universe costs ~100 stream constructions
    instead of one per domain; each name stays a pure function of
    ``(seed, index)``.
    """
    flat_i, third = syllables
    syl = _SYL_TABLE
    base = chunk * _FILLER_CHUNK
    return [f"{syl[flat_i[k]]}{syl[flat_i[k + 1]]}"
            f"{syl[flat_i[k + 2]] if has_third else ''}{base + j}.com"
            for j, (k, has_third) in enumerate(
                zip(range(0, 3 * _FILLER_CHUNK, 3), third))]


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
        self._chunks: Dict[int, List[str]] = {}
        self._stems: Dict[int, Tuple[array, bytes]] = {}
        #: filler count -> stem table (see :meth:`filler_indices`)
        self._stem_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._target_set: FrozenSet[str] = frozenset()
        self._target_set_size = 0
        self._churn: Optional[Dict[int, int]] = dict(churn) if churn else None
        self._streams: Dict[str, _RankKeyedStream] = {}
        #: the last window's walk, ``(key, generated count, row count,
        #: blocks)`` (see ``_walk``); never shared with an evolved
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
        #: the wild-state law's world tables as arrays, for _wild_law
        self._law_arrays = {
            "bulk_reseller": _Bisect(self._bulk_cum, self._bulk_total,
                                     self._bulk_reseller),
            "bulk_words": _Bisect(self._bulk_cum, self._bulk_total,
                                  self._bulk_words),
            "medium_reseller": np.array(self._medium_reseller),
            "medium_words": np.array(self._medium_words, dtype=np.int64),
            "pool": _Bisect(self._pool_cum, self._pool_total,
                            range(len(self._pool_cum))),
            "pool_broken": np.array(self._pool_broken),
            **{name: _Bisect(cum, total, codes)
               for name, (codes, cum, total) in self._support_mixes.items()},
        }

    def _stream(self, purpose: str) -> _RankKeyedStream:
        stream = self._streams.get(purpose)
        if stream is None:
            stream = _RankKeyedStream(self.seed, purpose)
            self._streams[purpose] = stream
        return stream

    # -- the ranked target list -------------------------------------------

    def _chunk(self, chunk: int) -> List[str]:
        """The names of one filler chunk, cached."""
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
        """The letter stem of filler ``index``, without building its
        chunk's 1,024 names: from the chunk's syllable draws when they
        are cached, else from the index's own seven uniforms alone."""
        chunk, offset = divmod(index, _FILLER_CHUNK)
        drawn = self._stems.get(chunk)
        if drawn is not None:
            flat_i, third = drawn
            k = 3 * offset
            picks = flat_i[k:k + 3]
            has_third = third[offset]
        else:
            u = self._stream("fillers").uniforms_at(chunk, 7 * offset, 7)
            n_onsets = len(_PRONOUNCEABLE_ONSETS)
            n_vowels = len(_PRONOUNCEABLE_VOWELS)
            # the scalar twin of _filler_syllables' columns
            # (u0, o1, v1, o2, v2, o3, v3)
            picks = [min(int(u[c] * n_onsets), n_onsets - 1) * n_vowels
                     + min(int(u[c + 1] * n_vowels), n_vowels - 1)
                     for c in (1, 3, 5)]
            has_third = u[0] >= 0.5
        syl = _SYL_TABLE
        stem = syl[picks[0]] + syl[picks[1]]
        return stem + syl[picks[2]] if has_third else stem

    def filler_indices(self, stem: str, count: int) -> List[int]:
        """The filler indices ``i < count`` whose stem is ``stem``,
        ascending; a string that is not 2-3 syllables names none.

        The table holds every filler's packed stem code, sorted, and the
        indices in that order (int32 each), built from the cached
        syllable draws on the first call for ``count``; never persisted.
        """
        code = _stem_code(stem)
        if code is None or count < 1:
            return []
        table = self._stem_tables.get(count)
        if table is None:
            codes = np.concatenate([
                _stem_codes(self._syllables(chunk))
                for chunk in range(-(-count // _FILLER_CHUNK))])[:count]
            # sorting (code, index) keys beats a stable argsort ~6x
            keys = np.sort((codes.astype(np.int64) << 32)
                           | np.arange(count, dtype=np.int64))
            table = self._stem_tables[count] = (
                (keys >> 32).astype(np.int32),
                (keys & 0xFFFFFFFF).astype(np.int32))
        codes, order = table
        # int32 probes: wider ones would cast the whole table per call
        lo, hi = codes.searchsorted(
            np.array((code, code + 1), dtype=np.int32)).tolist()
        return order[lo:hi].tolist()

    def target_domain(self, rank: int) -> str:
        """The rank-``rank`` domain of the simulated Alexa list."""
        if rank < 1:
            raise ValueError("ranks start at 1")
        head = self._head_names
        if rank <= len(head):
            return head[rank - 1]
        chunk, offset = divmod(rank - 1 - len(head), _FILLER_CHUNK)
        return self._chunk(chunk)[offset]

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
                names.extend(self._chunk(chunk))
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
            hit = built[index % _FILLER_CHUNK] == domain
        else:
            hit = self._filler_stem(index) == stem
        return len(self._head_names) + index + 1 if hit else None

    def evolved(self, churn: Optional[Dict[int, int]]) -> "WorldModel":
        """A world over the same ``(seed, config)`` at different churn.

        Target *identities* never churn — only per-rank registration,
        wild-state, and probe streams are generation-keyed — so the
        filler chunk, stem and stem-table caches and any materialized
        target set transfer to the new world unchanged.  This is what lets a
        resident index apply a churn delta without re-deriving the
        target universe.  The walk memo stays behind: churn re-keys the
        streams it was drawn from.
        """
        world = WorldModel(self.seed, self.config,
                           probe_attempts=self.probe_attempts, churn=churn)
        world._chunks = self._chunks
        world._stems = self._stems
        world._stem_tables = self._stem_tables
        world._target_set = self._target_set
        world._target_set_size = self._target_set_size
        return world

    def persona(self, owner_id: str) -> RegistrantPersona:
        """The stable WHOIS persona behind an owner id."""
        return make_registrant(
            SeededRng(derive_seed(self.seed, owner_id)), owner_id)

    # -- per-rank derivation ----------------------------------------------

    def target_parts(self, rank: int) -> Tuple[str, str]:
        """(label, suffix) of the rank's target domain; like
        :meth:`target_rank`, it never builds a filler chunk."""
        head = self._head_parts
        if 1 <= rank <= len(head):
            return head[rank - 1]
        index = rank - 1 - len(head)
        if index < 0:
            raise ValueError("ranks start at 1")
        built = self._chunks.get(index // _FILLER_CHUNK)
        if built is not None:
            return built[index % _FILLER_CHUNK][:-4], "com"
        return self._filler_stem(index) + str(index), "com"

    def rank_generation(self, rank: int) -> int:
        """The rank's churn generation (0 = the day-0 world)."""
        if self._churn is None:
            return 0
        return self._churn.get(rank, 0)

    def _rank_purpose(self, base: str, rank: int) -> str:
        """Stream purpose of ``base`` at the rank's churn generation."""
        generation = self.rank_generation(rank)
        return base if generation == 0 else f"{base}@{generation}"

    def _draw(self, base: str, ranks: List[int], out: np.ndarray,
              starts: List[int], sizes: List[int]) -> None:
        """Fill ``out[start:start + size]`` with each rank's ``base``
        stream prefix, at the rank's churn generation."""
        if self._churn is None:
            streams = [self._stream(base)] * len(ranks)
        else:
            streams = [self._stream(self._rank_purpose(base, r))
                       for r in ranks]
        for r, stream, start, size in zip(ranks, streams, starts, sizes):
            stream.uniforms_into(r, out[start:start + size])

    def registered_slots(self, rank: int) -> List[tuple]:
        """Every grid slot the rank registers, in grid order, as
        ``(flat, slot word, visual cost)`` (see :func:`_confirm`).

        Draws the rank's "reg" stream (at its churn generation) over the
        raw grid, preselects ``u < reg_p * section upper`` (a superset of
        the registrations at every rank) and settles the candidates with
        :func:`_confirm`.
        """
        label, _ = self.target_parts(rank)
        length = len(label)
        reg_p = (self.config.peak_registration_probability
                 / (rank ** self.config.rank_decay))
        uniforms = self._stream(self._rank_purpose("reg", rank)).uniforms(
            rank, _grid_total(length))
        cand = np.flatnonzero(uniforms < reg_p * _section_upper(length))
        return _confirm(_label_indices(label), reg_p, cand.tolist(),
                        uniforms[cand].tolist())

    def registers_typo(self, rank: int, typo: str,
                       edit: Optional[Tuple[str, int]]) -> bool:
        """Does rank ``rank`` register the typo label ``typo``, whose
        ``edit`` the caller has classified (``classify_edit(label, typo)``
        of the rank's label)?

        The point form of :meth:`registered_slots`: the one valid grid slot
        that spells ``typo`` (the slot ``edit`` names) is decided by its
        own uniform of the rank's "reg" stream and the scalar law
        :func:`_confirm`, without drawing the rest of the grid.  A typo
        no slot spells (no edit, or an edit character outside the
        domain alphabet) is not registered.
        """
        if edit is None:
            return False
        label, _ = self.target_parts(rank)
        op, i = edit
        n_del, n_trans, n_sub, _ = _sections(len(label))
        if op == "deletion":
            flat = i
        elif op == "transposition":
            flat = n_del + i
        else:
            code = ord(typo[i])
            char = _CODE2IDX_LIST[code] if code < 128 else -1
            if char < 0:
                return False
            flat = (n_del + n_trans + (n_sub if op == "addition" else 0)
                    + i * _ALPHA_SIZE + char)
        reg_p = (self.config.peak_registration_probability
                 / (rank ** self.config.rank_decay))
        u = self._stream(self._rank_purpose("reg", rank)).uniforms_at(
            rank, flat, 1)
        return bool(_confirm(_label_indices(label), reg_p, [flat],
                             u.tolist()))

    def rank_states(self, rank: int) -> List[DomainState]:
        """Ground truth of every ctypo this rank registers, in grid order.

        The target name comes from :meth:`target_parts`, so no filler
        chunk is built."""
        label, suffix = self.target_parts(rank)
        target = f"{label}.{suffix}"
        dot_suffix = "." + suffix
        slots = [word for _, word, _ in self.registered_slots(rank)]
        return [self._state(rank, target, _spell(label, word) + dot_suffix,
                            word)
                for word in self._wild_words(rank, slots)]

    # -- the world walk ----------------------------------------------------
    #
    # scan_ranks and featurize_ranks consume one walk, _walk: per batch of
    # up to 256 ranks inside a head or filler-chunk block, _walk_batch
    # draws the registration grids, confirms them (_confirm_block), runs
    # the wild-state law (_wild_block) and the membership oracle's
    # collision rule, and returns the batch as one _WalkBlock of numpy
    # columns.  The walk keeps its blocks as a memo keyed by (start_rank,
    # stop_rank, max_rank), so a sweep that scans and then featurizes a
    # window walks it once.  rank_states maps the same words to strings
    # through _state.

    def _walk(self, start_rank: int, stop_rank: int, max_rank: int,
              tally: List[int],
              perf: Optional["PerfRegistry"] = None
              ) -> Iterator["_WalkBlock"]:
        """The walk of ranks ``[start_rank, stop_rank)`` in a ``max_rank``
        universe, one :class:`_WalkBlock` per draw batch that registers a
        slot.  Adds every rank's generated count to ``tally[0]``.

        Walks one block at a time — the email-target head, or one filler
        chunk's overlap with the window — so chunk lookups amortize
        across it, and draws each block in batches of
        ``_DRAW_BATCH`` ranks (:meth:`_walk_batch`).

        A live walk keeps every block it yields (no copy: consumers only
        read them); when it runs to its end they become the world's
        memo, so the next walk of the same ``(start_rank, stop_rank,
        max_rank)`` yields them again instead of drawing (``perf`` then
        counts ``walk.reused_ranks`` and ``walk.reused_rows``).  A walk
        abandoned midway stores nothing, and one past
        ``_WALK_MEMO_ROWS`` rows lets go of its memo and streams on.
        """
        key = (start_rank, stop_rank, max_rank)
        memo = self._walk_memo
        if memo is not None and memo[0] == key:
            _, generated, n_rows, blocks = memo
            tally[0] += generated
            if perf is not None:
                perf.count("walk.reused_ranks", stop_rank - start_rank)
                perf.count("walk.reused_rows", n_rows)
            yield from blocks
            return

        self._walk_memo = None
        kept: Optional[List[_WalkBlock]] = []
        n_rows = 0
        generated0 = tally[0]
        head_n = len(self._head_names)
        head_labels = [label for label, _ in self._head_parts]
        rank = start_rank
        while rank < stop_rank:
            if rank <= head_n:
                base_rank = 1
                block_stop = min(stop_rank, head_n + 1)
                filler = False
            else:
                chunk = (rank - 1 - head_n) // _FILLER_CHUNK
                names = self._chunk(chunk)
                base_rank = head_n + chunk * _FILLER_CHUNK + 1
                block_stop = min(stop_rank, base_rank + _FILLER_CHUNK)
                filler = True
            for rb0 in range(rank, block_stop, _DRAW_BATCH):
                rb1 = min(rb0 + _DRAW_BATCH, block_stop)
                if filler:
                    labels = [name[:-4] for name in
                              names[rb0 - base_rank:rb1 - base_rank]]
                else:
                    labels = head_labels[rb0 - 1:rb1 - 1]
                tally[0] += sum(map(_generated_count, labels))
                block = self._walk_batch(rb0, labels, filler, max_rank)
                if block is None:
                    continue
                if kept is not None:
                    kept.append(block)
                    n_rows += len(block.words)
                    if n_rows > _WALK_MEMO_ROWS:
                        kept = None
                yield block
            rank = block_stop
        if kept is not None:
            self._walk_memo = (key, tally[0] - generated0, n_rows, kept)

    def _walk_batch(self, rb0: int, labels: List[str], filler: bool,
                    max_rank: int) -> Optional["_WalkBlock"]:
        """The walk of ranks ``rb0 .. rb0 + len(labels) - 1`` (target
        labels ``labels``; ``filler`` when they are filler targets).

        The registration draw (:meth:`_registered`), then the wild-state
        law over the registered slots (:meth:`_wild_block`); then the
        typos that are themselves targets of the ``max_rank`` universe
        are dropped (:meth:`target_rank` decides).  Only a filler typo
        that :func:`_may_collide` flags is spelled: that rule is a fact
        of the law.  ``None`` when no rank registers a slot.
        """
        m = len(labels)
        lengths = np.fromiter(map(len, labels), dtype=np.int64, count=m)
        codes = _label_codes(labels)
        row_rank, slot_words, vis = self._registered(rb0, codes, lengths)
        n = np.bincount(row_rank, minlength=m)
        registering = np.flatnonzero(n)
        if not registering.size:
            return None
        n = n[registering]
        words = self._wild_block(rb0 + registering, n) | slot_words

        # the collision rule: rows whose typo may be a target
        if filler and self._letter_final_heads:
            head_n = len(self._head_names)
            digits = np.array([len(str(r - head_n - 1))
                               for r in range(rb0, rb0 + m)])
            check = np.flatnonzero(_may_collide(
                words, lengths[row_rank], digits[row_rank]))
        else:
            check = np.arange(len(words))
        target_rank = self.target_rank
        suffixes = [".com"] * m if filler else [
            "." + suffix for _, suffix in self._head_parts[rb0 - 1:rb0 - 1 + m]]
        collided = [k for k, p, w in zip(check.tolist(),
                                         row_rank[check].tolist(),
                                         words[check].tolist())
                    if target_rank(_spell(labels[p], w) + suffixes[p],
                                   max_rank) is not None]
        hits = np.bincount(row_rank[collided], minlength=m)[registering]
        if collided:
            keep = np.ones(len(words), dtype=bool)
            keep[collided] = False
            words, vis = words[keep], vis[keep]
        return _WalkBlock(
            ranks=rb0 + registering, slots=n, collided=hits, nrows=n - hits,
            lengths=lengths[registering], codes=codes[registering],
            words=words, vis=vis)

    def _registered(self, rb0: int, codes: np.ndarray, lengths: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The registration draw of ranks ``rb0 ..`` with target labels
        ``codes`` (:func:`_label_codes`) of ``lengths``: ``(batch row,
        slot word, visual cost)`` of every registered slot, rank-major
        and in grid order.

        Draws every rank's "reg" stream (at its churn generation) into
        one matrix, preselects candidates with one padded vector compare
        (``u < reg_p * section upper``, a superset of the registrations)
        and confirms them with :func:`_confirm_block`.
        """
        m = len(lengths)
        totals = _grid_totals(lengths)
        upper, _ = _length_tables(int(lengths.max()))
        width = int(totals.max())
        draws = np.zeros((m, width))
        self._draw("reg", list(range(rb0, rb0 + m)), draws.reshape(-1),
                   list(range(0, m * width, width)), totals.tolist())
        peak = self.config.peak_registration_probability
        decay = self.config.rank_decay
        reg_p = np.array([peak / (r ** decay) for r in range(rb0, rb0 + m)])
        # np.power can differ from the scalar ``peak / r ** decay`` law
        # in the last ulp, so the preselect bound is padded to stay a
        # superset; the confirm compares against the scalar reg_p
        reg_pad = (peak * (1.0 + 1e-9)) * np.power(
            np.arange(rb0, rb0 + m, dtype=np.float64), -decay)
        found = []
        step = max(1, _PASS_CELLS // width)
        for j0 in range(0, m, step):
            cells = draws[j0:j0 + step]
            row, flat = np.nonzero(
                cells < reg_pad[j0:j0 + step, None]
                * upper[lengths[j0:j0 + step], :width])
            found.append((row + j0, flat, cells[row, flat]))
        row, flat, u = (np.concatenate(x) for x in zip(*found))
        out = []
        for c0 in range(0, max(len(row), 1), _PASS_CELLS):
            c = slice(c0, c0 + _PASS_CELLS)
            kept, words, vis = _confirm_block(codes, lengths, reg_p, row[c],
                                              flat[c], u[c])
            out.append((row[c][kept], words, vis))
        return tuple(np.concatenate(x) for x in zip(*out))

    def _wild_block(self, ranks: np.ndarray, counts: np.ndarray
                    ) -> np.ndarray:
        """:meth:`_wild_words` of many ranks at once: the state part of
        each row's walk word (no slot bits), rank-major.

        Rank ``ranks[j]`` has ``counts[j]`` registered slots and reads
        ``12 n + 4`` uniforms of its "wild" stream.  A slot uses a number
        of them that depends on the values drawn, so :meth:`_wild_law`
        first computes that count from every stream position at once,
        :func:`_hop` follows each rank's rows from its stream's start,
        and the law then runs in full at the rows' starts.  The running
        legitimate and small owner counts are a cumulative sum per rank.
        Ranks go in passes of about ``_PASS_CELLS`` stream positions.
        """
        sizes = 12 * counts + 4
        pick_sh = _WALK_FIELDS["owner_pick"][0]
        out = []
        for i0, i1 in _spans(sizes, _PASS_CELLS):
            size = sizes[i0:i1]
            bases = np.cumsum(size) - size
            total = int(size.sum())
            u = np.zeros(total + 16)
            self._draw("wild", ranks[i0:i1].tolist(), u, bases.tolist(),
                       size.tolist())
            n = counts[i0:i1]
            starts = _hop(self._wild_law(u, None), bases, n)
            word, owner = self._wild_law(u, starts, words=True)
            first = np.cumsum(n) - n
            for cls in (1, 4):           # legitimate, small squatter
                mine = owner == cls
                before = np.cumsum(mine) - mine
                before -= np.repeat(before[first], n)
                word |= np.where(mine, before << pick_sh, 0)
            out.append(word)
        return np.concatenate(out)

    def _wild_law(self, u: np.ndarray, at: Optional[np.ndarray],
                  words: bool = False):
        """The wild-state law of one slot started at each stream position
        in ``at`` (``None``: every position but the last 16 of ``u``,
        which must run on 10 positions past any start), in the draw
        order of :meth:`_wild_words`.

        Returns how many uniforms each slot uses; with ``words``
        instead ``(walk word less the running owner count, owner
        class)``.  Selects between floats are table gathers, never
        arithmetic, so every threshold is the scalar law's own value.
        """
        config = self.config
        law = self._law_arrays
        if at is None:
            size = len(u) - 16
            at = np.arange(size)
            u0, u1, u2, u3, u4, u5, u6 = (u[k:k + size] for k in range(7))
        else:
            u0, u1, u2, u3, u4, u5, u6 = (u[at + k] for k in range(7))
        squat = u0 >= config.defensive_fraction + config.legitimate_fraction
        legit = ~squat & (u0 >= config.defensive_fraction)
        # legitimate: ns pick, private roll, [proxy pick], policy roll
        legit_private = u2 < 0.25
        # squatters: class, [registrant pick], support, [cesspool roll],
        # ns pick, [mx roll, [policy roll]], private roll, whois picks
        bulk = u1 < config.bulk_share
        small = u1 >= config.bulk_share + config.medium_share
        medium_pick = (u2 * len(law["medium_reseller"])).astype(np.intp)
        reseller = ((bulk & law["bulk_reseller"](u2).astype(bool))
                    | (~bulk & ~small & law["medium_reseller"][medium_pick]))
        # support: the longtail mix reads u2, the others u3
        squatter = law["squatter"](u3)
        support = (squatter + reseller * (law["reseller"](u3) - squatter)
                   + small * (law["longtail"](u2) - squatter))
        has_mx = support != 0
        rolled = small & (support >= 3)          # support not 0, 1 or 2
        policy = rolled * (1 + (u6 >= config.longtail_catch_all_rate) + (
            u6 >= config.longtail_catch_all_rate
            + config.longtail_reject_all_rate))
        rate = np.array((config.bulk_privacy_rate, 0.05,
                         config.small_privacy_rate, 0.75))[
            2 * small + reseller + (policy == 1)]
        off = 5 + has_mx + rolled        # the private roll's offset
        private = u[at + off] < rate
        roll = u[at + off + 1]
        partial = ~private & (roll >= 0.8)
        if not words:
            return 1 + legit * (3 + legit_private) + squat * (
                off + 1 + partial)

        legit_word = (_LEGIT_WORD | _pick(_NORMAL_NS_ARRAY, u1)
                      | np.where(legit_private, _pick(_PROXY_ARRAY, u3), 0)
                      | _POLICY_ARRAY[np.where(
                          np.where(legit_private, u4, u3) < 0.1, 1, 2)])
        owner_word = np.where(bulk, law["bulk_words"](u2), np.where(
            small, _SMALL_WORD, law["medium_words"][medium_pick]))
        ns_word = np.where(~small | (u3 < config.small_cesspool_rate),
                           _pick(_CESSPOOL_NS_ARRAY, u4),
                           _pick(_NORMAL_NS_ARRAY, u4))
        parked = ~small & ((support == 1) | (support == 2))
        pooled = ~small & has_mx & ~parked
        pool_pick = law["pool"](u5)
        mx_word = np.where(parked, _HOST_ARRAY[np.minimum(support, 2),
                                               (u5 * 3).astype(np.intp)],
                           np.where(pooled, _POOL_ARRAY[pool_pick], np.where(
                               small & has_mx, _ADDR_BIT | np.where(
                                   u5 < 0.1, _SELF_MX_WORD, 0), 0)))
        support = np.where(pooled & law["pool_broken"][pool_pick], 4,
                           support)
        whois_word = np.where(private, _pick(_PROXY_ARRAY, roll), np.where(
            partial, _FIELDS_ARRAY[2 + (u[at + off + 2] * 4).astype(np.intp)],
            _FIELDS_WORDS[6]))
        squat_word = (owner_word | _SUPPORT_ARRAY[support] | ns_word
                      | mx_word | _POLICY_ARRAY[policy] | whois_word)
        word = np.where(squat, squat_word, np.where(legit, legit_word,
                                                    _DEFENSIVE_WORD))
        owner = np.where(legit, 1, np.where(squat & small, 4, 0))
        return word, owner

    def _wild_words(self, rank: int, slots: List[int]) -> List[int]:
        """The wild-state law: owner, support, MX, DNS and WHOIS codes.

        Reads the rank's "wild" stream (at its churn generation); each
        decision consumes exactly one uniform, so the derivation is
        independent of how consumers iterate.  One walk word per slot
        word in ``slots``, in grid order: the slot word plus the codes
        at their walk-word offsets: class (indexes
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
        for slot in slots:
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
        (probe and fold) phase timers.  The walk is shared: when the
        world's last walk covered the same ``(start_rank, stop_rank,
        max_rank)`` the scan reads it instead of walking again (see
        :meth:`_walk`).

        The probe emulation (:meth:`_probe_block`) mirrors
        :meth:`EcosystemScanner._probe` against the host behaviours
        ``build_internet`` attaches, and the fold is one ``np.bincount``
        per categorical field.
        """
        timing = perf is not None
        entry_t = perf_counter() if timing else 0.0
        aggregates = aggregates if aggregates is not None else ScanAggregates()
        max_rank = max_rank or (stop_rank - 1)
        excluded = {domain.lower() for domain in exclude}
        spell_all = bool(excluded) or retain is not None
        #: registrable MX domain by ``mx kind << 4 | host pick``
        mx_keys = [self._mx_keys[code >> 4][code & 15]
                   if 1 <= code >> 4 <= 3
                   and code & 15 < len(self._mx_keys[code >> 4]) else None
                   for code in range(64)]
        (cls_sh, cls_m, pick_sh, pick_m, sup_sh, sup_m, mx_sh, mx_m, mxp_sh,
         mxp_m) = _fields("owner", "owner_pick", "support", "mx", "mx_pick")
        tally = [0]
        registered_n = 0
        support_l = np.zeros(6, dtype=np.int64)
        truth_l = np.zeros(6, dtype=np.int64)
        owner_type_l = np.zeros(5, dtype=np.int64)
        # dict folds where the key space is open-ended (MX domains,
        # owners, targets)
        mx_c: Dict[str, int] = {}
        owner_dom_c: Dict[str, int] = {}
        per_target_c: Dict[str, int] = {}
        private_n = 0
        implicit_n = 0
        draw_s = 0.0
        probe_s = 0.0
        setup_s = (perf_counter() - entry_t) if timing else 0.0

        def fold(counts: Dict[str, int], keys, codes: np.ndarray) -> None:
            # count each code's key, codes indexing ``keys``
            for code, n in enumerate(np.bincount(codes).tolist()):
                if n:
                    counts[keys[code]] = counts.get(keys[code], 0) + n

        mark = perf_counter() if timing else 0.0
        for block in self._walk(start_rank, stop_rank, max_rank, tally,
                                perf):
            if timing:
                t1 = perf_counter()
                draw_s += t1 - mark
            words = block.words
            row_rank = np.repeat(np.arange(len(block.ranks)), block.nrows)
            ranks = block.ranks.tolist()
            targets = [self.target_domain(r) for r in ranks]
            domains: List[str] = []
            if spell_all:
                # the walk word spells its domain only where a fold
                # needs it: exclusion, retained states and self-hosted MX
                domains = [self._typo(targets[p], block.lengths[p], w)
                           for p, w in zip(row_rank.tolist(),
                                           words.tolist())]
                if excluded:
                    keep = [d not in excluded for d in domains]
                    domains = [d for d, k in zip(domains, keep) if k]
                    words, row_rank = words[keep], row_rank[keep]
            cls = (words >> cls_sh) & cls_m
            support = (words >> sup_sh) & sup_m
            observed = self._probe_block(block.ranks, block.slots, row_rank,
                                         cls, support)
            # fold ----------------------------------------------------------
            support_l += np.bincount(observed, minlength=6)
            truth_l += np.bincount(support, minlength=6)
            owner_type_l += np.bincount(cls, minlength=5)
            mx = (words >> mx_sh) & mx_m
            hosted = (mx >= 1) & (mx <= 3)
            fold(mx_c, mx_keys, (mx[hosted] << 4)
                 | ((words[hosted] >> mxp_sh) & mxp_m))
            fold(mx_c, targets, row_rank[mx == 5])
            for k in np.flatnonzero(mx == 4).tolist():    # self-hosted
                p = int(row_rank[k])
                key = domains[k] if domains else self._typo(
                    targets[p], block.lengths[p], int(words[k]))
                mx_c[key] = mx_c.get(key, 0) + 1
            implicit_n += int(np.count_nonzero(
                (mx == 0) & (words & _ADDR_BIT != 0)))
            for owner_cls, ids in ((2, self._bulk_ids),
                                   (3, self._medium_ids)):
                fold(owner_dom_c, ids,
                     (words[cls == owner_cls] >> pick_sh) & pick_m)
            private_n += int(np.count_nonzero(words & _PRIVATE_BIT))
            registered_n += len(words)
            fold(per_target_c, targets, row_rank)
            if retain is not None:
                for k, (p, w, seen) in enumerate(zip(
                        row_rank.tolist(), words.tolist(),
                        observed.tolist())):
                    retain.append((self._state(ranks[p], targets[p],
                                               domains[k], w),
                                   _SUPPORT_BY_CODE[seen]))
            if timing:
                mark = perf_counter()
                probe_s += mark - t1
        if timing:
            draw_s += perf_counter() - mark

        aggregates.fold_flat(
            tally[0], registered_n, support_l.tolist(), truth_l.tolist(),
            owner_type_l.tolist(), _SUPPORT_VALUE_BY_CODE,
            _OWNER_VALUE_BY_CODE, mx_c, owner_dom_c, per_target_c,
            private_n, implicit_n)
        if timing:
            perf.add_seconds("scan.setup_seconds", setup_s)
            perf.add_seconds("scan.draw_seconds", draw_s)
            perf.add_seconds("scan.probe_seconds", probe_s)
            perf.count("scan.ranks", stop_rank - start_rank)
        return aggregates

    @staticmethod
    def _typo(target: str, length: int, word: int) -> str:
        """The domain the walk word's edit makes of ``target``, whose
        label is its first ``length`` characters."""
        return _spell(target[:length], word) + target[length:]

    def _probe_block(self, ranks: np.ndarray, slots: np.ndarray,
                     row_rank: np.ndarray, cls: np.ndarray,
                     support: np.ndarray) -> np.ndarray:
        """The observed support code of each scanned row (codes 0 NO_DNS,
        1 NO_INFO, 2 NO_EMAIL, 3 PLAIN, 4 STARTTLS_ERRORS, 5
        STARTTLS_OK).

        Hosts whose behaviour is deterministic (no DNS, defensive mail,
        parked or web-only hosts) resolve without consuming probe
        uniforms.  Every other row probes: per attempt a timeout draw,
        then a network-error draw, then either a deterministic refusal
        (no listener) or the listening server's STARTTLS class.  Rank
        ``ranks[j]``'s probing rows read its "probe" stream in turn from
        a ``2 * attempts * slots[j] + 2`` prefix; each row kind's attempt
        loop runs from every stream position (:func:`_probe_table`) and
        :func:`_hop` follows the rows.
        """
        observed = np.where(support == 0, 0, np.where(cls == 0, 5, support))
        probing = ((support != 0) & (cls != 0) & (support != 2)
                   & ~((cls != 4) & (cls != 1) & (support == 1)))
        if not probing.any():
            return observed
        p_cls, p_support = cls[probing], support[probing]
        kind = np.where(p_cls == 1, 0, np.where(
            p_cls != 4, 1, np.where(p_support == 1, 2, 3)))
        # what an attempt that reaches the host observes
        reach = np.where(kind == 2, 2, np.where(
            (kind != 0) & (p_support == 4), 4,
            np.where((kind == 3) & (p_support == 3), 3, 5)))
        counts = np.bincount(row_rank[probing], minlength=len(ranks))
        probed = np.flatnonzero(counts)
        counts = counts[probed]
        attempts = self.probe_attempts
        sizes = 2 * attempts * slots[probed] + 2
        config = self.config
        kinds = ((0.05, 0.03, True), (0.03, 0.02, True), (0.97, 0.03, False),
                 (config.longtail_timeout_probability,
                  config.longtail_network_error_probability, True))
        seen = []
        row0 = 0
        for i0, i1 in _spans(sizes, _PASS_CELLS):
            size = sizes[i0:i1]
            bases = np.cumsum(size) - size
            total = int(size.sum())
            u = np.zeros(total + 2 * attempts + 2)
            self._draw("probe", ranks[probed[i0:i1]].tolist(), u,
                       bases.tolist(), size.tolist())
            tables = [_probe_table(u, total, attempts, *params)
                      for params in kinds]
            n = counts[i0:i1]
            row1 = row0 + int(n.sum())
            k = kind[row0:row1]
            starts = _hop(np.stack([t[0] for t in tables]), bases, n, k)
            got = np.stack([t[1] for t in tables])[k, starts]
            seen.append(np.where(got, reach[row0:row1], 1))
            row0 = row1
        observed[probing] = np.concatenate(seen)
        return observed

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
        nrows_l, len_l, tdigit_l, tadj_l, packed_l, vis_l)`` numpy
        arrays — the first five parallel per contributing rank, the last
        two per row — whenever ``block_records`` rows accumulate (a
        rank's rows never straddle two blocks).

        Returns ``(rows, excluded, generated)``; ``excluded`` counts
        registrations skipped because the candidate string collides with
        a target domain of the ``max_rank`` universe.  Bounded memory:
        per-block arrays, the window's own filler chunks and a capped
        walk memo only.  ``perf`` (optional) accumulates
        ``featurize.setup_seconds`` and ``featurize.walk_seconds``: the
        walk and the packing, or on a reused walk (the world's last walk
        covered the same window, see :meth:`_walk`) the memo read and
        the packing alone.
        """
        timing = perf is not None
        entry_t = perf_counter() if timing else 0.0
        max_rank = max_rank or (stop_rank - 1)
        lex_bits = _kernel_table("lex")
        adj = _kernel_table("adj")
        op_sh, op_m, index_sh, index_m, char_sh, char_m = _SLOT_FIELDS
        tally = [0]
        pending: List[tuple] = []
        pending_rows = 0
        n_rows = 0
        n_excluded = 0
        setup_s = (perf_counter() - entry_t) if timing else 0.0

        for block in self._walk(start_rank, stop_rank, max_rank, tally,
                                perf):
            n_excluded += int(block.collided.sum())
            n_rows += len(block.words)
            if on_block is None or not len(block.words):
                continue
            has = block.nrows > 0
            nrows, lengths = block.nrows[has], block.lengths[has]
            codes = block.codes[has]
            words = block.words
            # the target's lexical counts, packed at their word offsets;
            # each row adjusts them by the chars its edit removes/adds
            lex = lex_bits[codes].sum(axis=1)
            pairs = adj[codes[:, 1:-1], codes[:, 2:]].sum(axis=1)
            per_rank = (block.ranks[has], nrows, lengths,
                        ((lex >> 14) & 63) / lengths,
                        np.where(lengths > 1,
                                 pairs / np.maximum(lengths - 1, 1), 0.0))
            row_rank = np.repeat(np.arange(len(nrows)), nrows)
            op = (words >> op_sh) & op_m
            removed = lex_bits[codes[row_rank,
                                     ((words >> index_sh) & index_m) + 1]]
            added = lex_bits[(words >> char_sh) & char_m]
            packed = (lex[row_rank] + np.where(op >= 2, added, 0)
                      - np.where(op % 2 == 0, removed, 0)) | (
                          words & _FEATURE_MASK)
            # a block ends with the rank whose rows bring it to
            # block_records, so a rank's rows never straddle two blocks
            ends = np.cumsum(nrows)
            j0 = 0
            while j0 < len(ends):
                row0 = int(ends[j0 - 1]) if j0 else 0
                j = int(np.searchsorted(
                    ends, row0 + block_records - pending_rows, "left"))
                j1 = min(max(j, j0), len(ends) - 1) + 1
                row1 = int(ends[j1 - 1])
                pending.append(tuple(x[j0:j1] for x in per_rank)
                               + (packed[row0:row1], block.vis[row0:row1]))
                pending_rows += row1 - row0
                if pending_rows >= block_records:
                    on_block(tuple(np.concatenate(x) for x in zip(*pending)))
                    pending, pending_rows = [], 0
                j0 = j1

        if pending:
            on_block(tuple(np.concatenate(x) for x in zip(*pending)))
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
