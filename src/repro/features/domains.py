"""Per-domain feature matrices from the scan pipeline (the domain lane).

The world has one walk — registration draw, wild-state codes, membership
oracle — and two consumers: :meth:`WorldModel.scan_ranks` probes its
rows, and :meth:`WorldModel.featurize_ranks` packs them into one
``(packed int64, visual float)`` pair per registered wild ctypo, batched
into blocks.  Passing the ``world`` a window was just scanned on lets
the sweep read that walk instead of drawing it again.  This module is
the columnar half of that engine: it keeps blocks in a compact numpy form
(~16 bytes/row, so a full 1M-rank universe stays resident), unpacks the
49-bit words with vector shifts, and assembles the float64 feature matrix
of :data:`~repro.features.schema.DOMAIN_FEATURES` one block at a time —
memory stays bounded by the block size, never the sweep size.

:func:`run_sharded_featurize` is the rank-range runner
(:func:`repro.experiment.parallel.run_ranges`) with
:func:`featurize_range` as its consumer.

Two independent implementations of the row law exist on purpose:

* :func:`block_matrix` — the vectorized unpacker (the hot path);
* :func:`domain_feature_row` / :func:`state_feature_row` — a scalar
  reference that recomputes every feature from plain strings and a
  :class:`~repro.ecosystem.world.DomainState`, leaning on the public
  :mod:`repro.core.distances` kernels.

The hypothesis parity suite pins them against each other row-for-row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distances import (
    fat_finger_for_edit,
    position_weight,
    qwerty_adjacency,
    visual_distance_for_edit,
)
from repro.core.typogen import split_domain
from repro.ecosystem.internet import InternetConfig
from repro.ecosystem.world import (
    _CESSPOOL_NAMESERVERS,
    _SUPPORT_CODE,
    DomainState,
    FEATURE_PACK_SHIFTS,
    PARKED_MX_HOSTS,
    WEB_MX_HOSTS,
    WorldModel,
)
from repro.features.schema import DOMAIN_FEATURES, VOWELS
from repro.util.perf import PerfRegistry

__all__ = [
    "DomainBlock",
    "DomainSweep",
    "block_matrix",
    "block_ranks",
    "domain_feature_row",
    "state_feature_row",
    "featurize_domains",
    "featurize_range",
    "run_sharded_featurize",
]

_COL: Dict[str, int] = {name: i for i, name in enumerate(DOMAIN_FEATURES)}
_N_FEATURES = len(DOMAIN_FEATURES)

_DIGITS = frozenset("0123456789")

#: edit-op feature column by packed op code (0 del, 1 trans, 2 sub, 3 add)
_OP_COLS = (_COL["op_deletion"], _COL["op_transposition"],
            _COL["op_substitution"], _COL["op_addition"])
_OP_NAMES = ("deletion", "transposition", "substitution", "addition")

#: longtail recipient-policy feature column by packed policy code
_POLICY_COLS = (None, _COL["policy_catch_all"], _COL["policy_reject"],
                _COL["policy_domain"])
_POLICY_NAMES = {"catch_all": 1, "reject_unknown": 2, "domain": 3}

_MX_COLS = (_COL["mx_none"], _COL["mx_parked"], _COL["mx_web"],
            _COL["mx_pool"], _COL["mx_self"], _COL["mx_target"])
_NS_COLS = (_COL["ns_cesspool"], _COL["ns_normal"], _COL["ns_target"])
_SUPPORT_COLS = tuple(
    _COL[name] for name in ("support_no_dns", "support_no_info",
                            "support_no_email", "support_plain",
                            "support_starttls_errors",
                            "support_starttls_ok"))

_SH = FEATURE_PACK_SHIFTS


@dataclass(frozen=True)
class DomainBlock:
    """One compact block of the feature sweep (numpy arrays only).

    ``ranks``/``nrows``/``lens``/``tdigit``/``tadj`` run per contributing
    rank; ``packed``/``vis`` run per row, with each rank's rows
    contiguous and ranks ascending.  A rank's rows never straddle a
    block boundary, so concatenating blocks reproduces the row stream
    regardless of where the boundaries fell.
    """

    ranks: np.ndarray    # int64, per rank
    nrows: np.ndarray    # int64, per rank
    lens: np.ndarray     # int64, per rank (target label length)
    tdigit: np.ndarray   # float64, per rank (target digit fraction)
    tadj: np.ndarray     # float64, per rank (target adjacent-bigram frac)
    packed: np.ndarray   # int64, per row
    vis: np.ndarray      # float64, per row (edit visual cost)

    @property
    def n_rows(self) -> int:
        return int(self.packed.shape[0])


def _compact(raw: tuple) -> DomainBlock:
    rank_l, nrows_l, len_l, tdigit_l, tadj_l, packed_l, vis_l = raw
    return DomainBlock(
        ranks=np.asarray(rank_l, dtype=np.int64),
        nrows=np.asarray(nrows_l, dtype=np.int64),
        lens=np.asarray(len_l, dtype=np.int64),
        tdigit=np.asarray(tdigit_l, dtype=np.float64),
        tadj=np.asarray(tadj_l, dtype=np.float64),
        packed=np.asarray(packed_l, dtype=np.int64),
        vis=np.asarray(vis_l, dtype=np.float64))


def block_ranks(block: DomainBlock) -> np.ndarray:
    """Per-row rank vector (int64) for one block."""
    return np.repeat(block.ranks, block.nrows)


def block_matrix(block: DomainBlock) -> Tuple[np.ndarray, np.ndarray]:
    """Unpack one block into ``(X, y)`` — the vectorized featurizer.

    ``X`` is ``(n_rows, len(DOMAIN_FEATURES))`` float64 in schema order;
    ``y`` is the squatter ground-truth label (never a feature).  Pure
    vector shifts and masks — no per-row Python.
    """
    packed = block.packed
    n = packed.shape[0]
    X = np.zeros((n, _N_FEATURES), dtype=np.float64)
    if n == 0:
        return X, np.zeros(0, dtype=np.float64)

    op = (packed >> _SH["op"]) & 3
    index = (packed >> _SH["index"]) & 63
    digits = (packed >> _SH["digits"]) & 63
    hyphens = (packed >> _SH["hyphens"]) & 63
    vowels = (packed >> _SH["vowels"]) & 63
    mx = (packed >> _SH["mx"]) & 7
    addr = (packed >> _SH["addr"]) & 1
    ns = (packed >> _SH["ns"]) & 3
    private = (packed >> _SH["private"]) & 1
    fields = (packed >> _SH["fields"]) & 7
    policy = (packed >> _SH["policy"]) & 3
    support = (packed >> _SH["support"]) & 7
    squat = (packed >> _SH["squat"]) & 1
    adjacent = (packed >> _SH["adjacent"]) & 1

    tlen = np.repeat(block.lens, block.nrows)
    rank = np.repeat(block.ranks, block.nrows).astype(np.float64)

    typo_len = tlen + (op == 3).astype(np.int64) - (op == 0).astype(np.int64)
    X[:, _COL["typo_len"]] = typo_len
    X[:, _COL["target_len"]] = tlen
    log_rank = np.log10(rank)
    X[:, _COL["log10_rank"]] = log_rank
    X[:, _COL["popularity"]] = 1.0 / (1.0 + log_rank)

    for code, col in enumerate(_OP_COLS):
        X[:, col] = op == code
    denom = np.maximum(1, tlen - 1).astype(np.float64)
    X[:, _COL["edit_pos_rel"]] = index / denom
    rel = index / denom
    interior = 0.85 + 0.3 * np.abs(rel - 0.5)
    posw = np.where(tlen <= 1, 1.0,
                    np.where(index == 0, 1.3,
                             np.where(index >= tlen - 1, 1.15, interior)))
    X[:, _COL["edit_pos_weight"]] = posw
    X[:, _COL["edit_adjacent"]] = adjacent
    X[:, _COL["edit_visual"]] = block.vis

    X[:, _COL["digit_count"]] = digits
    X[:, _COL["hyphen_count"]] = hyphens
    X[:, _COL["vowel_frac"]] = vowels / np.maximum(1, typo_len)
    X[:, _COL["target_digit_frac"]] = np.repeat(block.tdigit, block.nrows)
    X[:, _COL["target_adj_bigram_frac"]] = np.repeat(block.tadj, block.nrows)

    X[:, _COL["registered"]] = 1.0
    for code, col in enumerate(_MX_COLS):
        X[:, col] = mx == code
    X[:, _COL["has_address"]] = addr
    for code, col in enumerate(_NS_COLS):
        X[:, col] = ns == code
    X[:, _COL["private_whois"]] = private
    X[:, _COL["whois_fields_frac"]] = fields / 6.0
    for code in (1, 2, 3):
        X[:, _POLICY_COLS[code]] = policy == code
    for code, col in enumerate(_SUPPORT_COLS):
        X[:, col] = support == code

    return X, squat.astype(np.float64)


# -- scalar reference ----------------------------------------------------------


def domain_feature_row(typo_label: str, target_label: str, rank: int,
                       edit_op: str, edit_index: int, edit_char: str,
                       *,
                       registered: bool = True,
                       mx_domain: Optional[str] = None,
                       has_address: bool = False,
                       nameserver: str = "",
                       private_whois: bool = False,
                       whois_fields_filled: int = 0,
                       longtail_policy: Optional[str] = None,
                       support: object = None,
                       target_domain: str = "",
                       typo_domain: str = "") -> np.ndarray:
    """One feature row from plain strings — the scalar reference law.

    Computes every :data:`DOMAIN_FEATURES` column directly from the typo
    and target labels plus the registration observables, using the public
    :mod:`repro.core.distances` kernels for the edit features.  Tolerant
    of arbitrary (junk, unicode) labels: character classes are explicit
    ASCII sets and lengths are plain ``len``.
    """
    row = np.zeros(_N_FEATURES, dtype=np.float64)
    tlen = len(target_label)
    typo_len = len(typo_label)
    row[_COL["typo_len"]] = typo_len
    row[_COL["target_len"]] = tlen
    log_rank = float(np.log10(rank))
    row[_COL["log10_rank"]] = log_rank
    row[_COL["popularity"]] = 1.0 / (1.0 + log_rank)

    row[_OP_COLS[_OP_NAMES.index(edit_op)]] = 1.0
    row[_COL["edit_pos_rel"]] = edit_index / max(1, tlen - 1)
    row[_COL["edit_pos_weight"]] = position_weight(edit_index, tlen)
    row[_COL["edit_adjacent"]] = 1.0 if fat_finger_for_edit(
        target_label, edit_op, edit_index, edit_char) == 1 else 0.0
    row[_COL["edit_visual"]] = visual_distance_for_edit(
        target_label, edit_op, edit_index, edit_char)

    row[_COL["digit_count"]] = sum(c in _DIGITS for c in typo_label)
    row[_COL["hyphen_count"]] = typo_label.count("-")
    row[_COL["vowel_frac"]] = (sum(c in VOWELS for c in typo_label)
                               / max(1, typo_len))
    row[_COL["target_digit_frac"]] = (sum(c in _DIGITS
                                          for c in target_label)
                                      / max(1, tlen))
    adj_pairs = sum(
        1 for a, b in zip(target_label, target_label[1:])
        if b in qwerty_adjacency(a))
    row[_COL["target_adj_bigram_frac"]] = (adj_pairs / (tlen - 1)
                                           if tlen > 1 else 0.0)

    row[_COL["registered"]] = 1.0 if registered else 0.0
    if registered:
        if mx_domain is None:
            mx_code = 0
        elif mx_domain in PARKED_MX_HOSTS:
            mx_code = 1
        elif mx_domain in WEB_MX_HOSTS:
            mx_code = 2
        elif typo_domain and mx_domain == typo_domain:
            mx_code = 4
        elif target_domain and mx_domain == f"mx.{target_domain}":
            mx_code = 5
        else:
            mx_code = 3          # shared squatter pool host
        row[_MX_COLS[mx_code]] = 1.0
        row[_COL["has_address"]] = 1.0 if has_address else 0.0
        if target_domain and nameserver == f"ns.{target_domain}":
            ns_code = 2
        elif nameserver in _CESSPOOL_NAMESERVERS:
            ns_code = 0
        else:
            ns_code = 1
        row[_NS_COLS[ns_code]] = 1.0
        row[_COL["private_whois"]] = 1.0 if private_whois else 0.0
        row[_COL["whois_fields_frac"]] = whois_fields_filled / 6.0
        if longtail_policy is not None:
            row[_POLICY_COLS[_POLICY_NAMES[longtail_policy]]] = 1.0
        if support is not None:
            row[_SUPPORT_COLS[_SUPPORT_CODE[support]]] = 1.0
    return row


def state_feature_row(state: DomainState) -> np.ndarray:
    """Scalar reference row for one world :class:`DomainState`."""
    target_label, _ = split_domain(state.target)
    typo_label, _ = split_domain(state.domain)
    return domain_feature_row(
        typo_label, target_label, state.rank, state.edit_op,
        state.edit_index, state.edit_char,
        registered=True,
        mx_domain=state.mx_domain,
        has_address=state.has_address,
        nameserver=state.nameserver,
        private_whois=state.private_whois,
        whois_fields_filled=state.whois_fields_filled,
        longtail_policy=state.longtail_policy,
        support=state.support,
        target_domain=state.target,
        typo_domain=state.domain)


# -- sweep drivers -------------------------------------------------------------


@dataclass
class DomainSweep:
    """A completed featurize sweep: compact blocks + totals."""

    start_rank: int
    stop_rank: int
    max_rank: int
    blocks: List[DomainBlock] = field(default_factory=list)
    n_rows: int = 0
    n_excluded: int = 0
    generated: int = 0

    def digest(self) -> str:
        """Block-boundary-independent SHA-256 of the row stream.

        Three field-wise hashers (per-row rank, packed word, visual
        cost) make the digest invariant to where block and shard
        boundaries fell, so ``serial == sharded`` holds byte-for-byte.
        """
        h_rank = hashlib.sha256()
        h_packed = hashlib.sha256()
        h_vis = hashlib.sha256()
        for block in self.blocks:
            h_rank.update(block_ranks(block).tobytes())
            h_packed.update(block.packed.tobytes())
            h_vis.update(block.vis.tobytes())
        return hashlib.sha256(
            h_rank.digest() + h_packed.digest() + h_vis.digest()
        ).hexdigest()

    def matrices(self):
        """Yield ``(X, y, ranks)`` per block — bounded-memory iteration."""
        for block in self.blocks:
            X, y = block_matrix(block)
            yield X, y, block_ranks(block)


def featurize_domains(seed: int, start_rank: int, stop_rank: int, *,
                      max_rank: Optional[int] = None,
                      config: Optional[InternetConfig] = None,
                      churn: Sequence[Tuple[int, int]] = (),
                      block_records: int = 65536,
                      world: Optional[WorldModel] = None,
                      perf: Optional[PerfRegistry] = None) -> DomainSweep:
    """Featurize ranks ``[start_rank, stop_rank)`` of the lazy world."""
    max_rank = max_rank or (stop_rank - 1)
    if world is None:
        world = WorldModel(seed, config,
                           churn=dict(churn) if churn else None)
    sweep = DomainSweep(start_rank=start_rank, stop_rank=stop_rank,
                        max_rank=max_rank)
    append = sweep.blocks.append
    rows, excluded, generated = world.featurize_ranks(
        start_rank, stop_rank, max_rank=max_rank,
        on_block=lambda raw: append(_compact(raw)),
        block_records=block_records, perf=perf)
    sweep.n_rows = rows
    sweep.n_excluded = excluded
    sweep.generated = generated
    return sweep


def featurize_range(world: WorldModel, task,
                    perf: Optional[PerfRegistry]) -> DomainSweep:
    """The rank-range runner's featurize consumer: one range's blocks."""
    return featurize_domains(task.seed, task.start_rank, task.stop_rank,
                             max_rank=task.max_rank, world=world, perf=perf)


def run_sharded_featurize(seed: int, max_rank: int,
                          jobs: Optional[int] = None,
                          config: Optional[InternetConfig] = None,
                          churn: Sequence[Tuple[int, int]] = (),
                          perf: Optional[PerfRegistry] = None
                          ) -> DomainSweep:
    """Featurize ranks ``1..max_rank`` through the rank-range runner.

    Ranges split at rank boundaries and a rank's rows never straddle
    blocks, so concatenating the range blocks in rank order reproduces
    the one-call row stream exactly — :meth:`DomainSweep.digest` is
    identical at any ``jobs``.
    """
    from repro.experiment.parallel import run_ranges

    merged = DomainSweep(start_rank=1, stop_rank=max_rank + 1,
                         max_rank=max_rank)

    def extend(start: int, stop: int, world_digest: str,
               shard: DomainSweep) -> None:
        merged.blocks.extend(shard.blocks)
        merged.n_rows += shard.n_rows
        merged.n_excluded += shard.n_excluded
        merged.generated += shard.generated

    run_ranges(seed, max_rank, featurize_range, extend, jobs=jobs,
               config=config, churn=dict(churn),
               perf=perf).raise_if_degraded()
    return merged
