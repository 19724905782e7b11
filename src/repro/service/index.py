"""Precomputed candidate index for the resident typo-risk query service.

Answering "which targets of the top-``max_rank`` universe sit within one
edit of this domain?" by brute force costs a Damerau-Levenshtein call per
target — a million kernel invocations per lookup at paper scale.  This
module turns that scan inside-out using the two structural facts of the
lazy :class:`~repro.ecosystem.world.WorldModel`:

* the **head targets** (the study's ~20 email providers) are few, so
  their *deletion neighbourhoods* can be inverted at build time into
  ``(suffix, variant) -> ranks`` buckets — the symmetric-delete trick:
  two strings are within DL-1 iff they are equal, one is a deletion of
  the other, or they share a single-character deletion.  A lookup probes
  the query label and each of its deletions (O(len) dict probes) and
  confirms survivors with the O(len) :func:`within_one_edit` predicate;
* the **filler targets** obey the world's membership law: filler index
  ``i`` is ``<stem><i>.com`` with a 2-3 syllable stem.  With ``L`` the
  query label's non-digits and ``D`` its digits, one edit of
  ``stem + str(i)`` leaves ``i`` printed by ``D`` or by ``D[1:]``, or
  the stem equal to ``L`` or to ``L[:-1]``.  So the candidates are two
  direct indices and two probes of the world's sorted stem table
  (:meth:`WorldModel.filler_indices`), each confirmed with
  :func:`within_one_edit` against ``stem + str(i)``; no filler name is
  materialized.

Retrieval cost is set by the cold miss, a query the engine's verdict
memo has not seen, not by the warm memo hit (well under a microsecond).
In the ``serve`` benchmark (100k ranks, typo-heavy stream, a fresh
index per unit) the median lookup is such a miss: it reports ~15.4k
lookups/s, p50 ~65 us and p99 ~0.15 ms (host-normalised, 2-core x86,
CPython 3.11).

Both paths are *pure acceleration*: :meth:`TypoRiskIndex.candidate_ranks`
is pinned equal to :meth:`brute_force_candidate_ranks` — a literal scan
of every materialized target — by the property suite, for arbitrary
query strings (unicode and over-length inputs return empty, never
raise).

The index also answers whether the world actually *registered* a typo
(a ctypo), which the risk scorer uses to escalate live squats over
merely-possible typos, from the one grid slot that spells it
(:meth:`WorldModel.registers_typo`), so it keeps no per-rank state and
a churn delta (:meth:`apply_delta`) only re-keys the world.  A built
index persists as a ``repro-risk-index@1`` artifact through the same
envelope as every other artifact, and ``repro doctor`` validates it
through the same loader.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.distances import damerau_levenshtein, within_one_edit
from repro.core.targets import EMAIL_TARGETS
from repro.core.typogen import split_domain
from repro.ecosystem.delta import ChurnSchedule, _config_digest
from repro.ecosystem.internet import InternetConfig
from repro.ecosystem.world import WorldModel
from repro.util.artifact import (
    ArtifactFormat,
    json_digest,
    load_artifact,
    save_artifact,
)
from repro.util.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
)
from repro.util.perf import PerfRegistry

__all__ = ["RISK_INDEX_FORMAT", "TypoRiskIndex", "normalize_query"]

#: artifact format tag; bump when the on-disk schema changes
RISK_INDEX_FORMAT = "repro-risk-index@1"

_ARTIFACT = ArtifactFormat(RISK_INDEX_FORMAT, "risk index",
                           "rebuild it with serve-bench --save-index")

#: the self-digest over the canonical payload (kept under this name for
#: callers that re-digest an edited index file)
_payload_digest = json_digest

_DIGITS = "0123456789"
#: every character a filler label can hold
_FILLER_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz" + _DIGITS)
_NO_DIGITS = str.maketrans("", "", _DIGITS)
_NON_DIGITS = re.compile("[^0-9]")


def normalize_query(query: str) -> str:
    """Canonical lookup form of a raw query string.

    Accepts what mail software actually holds at signup/delivery time:
    an address (``user@gmial.com``), a host with a trailing dot, mixed
    case, stray whitespace.  Never raises — malformed input normalizes
    to something :func:`split_domain` will reject downstream.
    """
    q = query.strip().lower().rstrip(".")
    if "@" in q:
        q = q.rsplit("@", 1)[1]
    return q


class TypoRiskIndex:
    """Inverted DL-1 candidate structures over the lazy world model.

    Construction cost is O(head targets) — independent of ``max_rank``,
    because the filler side of the universe is served by the membership
    law instead of a materialized set.  All retrieval state is a pure
    function of ``(seed, max_rank, config, churn)``.
    """

    def __init__(self, seed: int, max_rank: int, *,
                 config: Optional[InternetConfig] = None,
                 churn: Optional[Dict[int, int]] = None,
                 day: int = 0,
                 perf: Optional[PerfRegistry] = None) -> None:
        if max_rank < 1:
            raise ConfigError("max_rank must be >= 1")
        start = perf_counter()
        self.seed = seed
        self.max_rank = max_rank
        self.day = day
        self._churn: Dict[int, int] = dict(churn) if churn else {}
        self.world = WorldModel(seed, config, churn=self._churn or None)
        self.config = self.world.config
        #: monotone epoch, bumped by every applied delta so resident
        #: engines know to drop memoized verdicts
        self.epoch = 0

        n_head = min(max_rank, len(EMAIL_TARGETS))
        buckets: Dict[Tuple[str, str], List[int]] = {}
        head_len_max = 0
        for rank in range(1, n_head + 1):
            label, suffix = self.world.target_parts(rank)
            head_len_max = max(head_len_max, len(label))
            variants = {label}
            variants.update(label[:i] + label[i + 1:]
                            for i in range(len(label)))
            for variant in variants:
                buckets.setdefault((suffix, variant), []).append(rank)
        self._head_buckets: Dict[Tuple[str, str], Tuple[int, ...]] = {
            key: tuple(ranks) for key, ranks in buckets.items()}
        #: a query label longer than the longest head label + 1 cannot be
        #: within one edit of any head target
        self._head_len_max = head_len_max
        self._n_head = len(EMAIL_TARGETS)
        #: filler slots in the universe (indices 0..count-1)
        self._n_fillers = max(0, max_rank - self._n_head)
        #: longest possible filler label (9-letter stem + widest index),
        #: 0 when the universe has no filler ranks at all
        self._filler_len_max = (
            9 + len(str(self._n_fillers - 1)) if self._n_fillers else 0)
        self.build_seconds = perf_counter() - start
        if perf is not None:
            perf.add_seconds("service.index_build", self.build_seconds)

    # -- identity ----------------------------------------------------------

    def churn_map(self) -> Dict[int, int]:
        """A copy of the index's rank -> generation churn map."""
        return dict(self._churn)

    @property
    def head_bucket_count(self) -> int:
        """How many (suffix, variant) deletion buckets the index holds."""
        return len(self._head_buckets)

    def target_rank(self, domain: str) -> Optional[int]:
        """The domain's rank in this index's universe, or ``None``."""
        return self.world.target_rank(domain, self.max_rank)

    # -- candidate retrieval ----------------------------------------------

    def candidate_ranks(self, domain: str) -> Tuple[int, ...]:
        """Ranks of every target within DL-1 of ``domain`` (same suffix).

        Includes the exact match (distance 0) when ``domain`` is itself
        a target, so the set is literally ``{rank : DL(query, target) <=
        1, same suffix}`` — the contract the brute-force parity suite
        pins.  Unparseable input (no TLD, empty label) returns ``()``.
        """
        try:
            label, suffix = split_domain(normalize_query(domain))
        except ValueError:
            return ()
        return self._candidate_ranks(label, suffix)

    def _candidate_ranks(self, label: str, suffix: str) -> Tuple[int, ...]:
        found: Set[int] = set()
        # head targets: the query and its deletions probe the
        # symmetric-delete buckets; survivors are confirmed exactly
        if len(label) <= self._head_len_max + 1:
            buckets = self._head_buckets
            world_parts = self.world.target_parts
            probes = [label]
            probes.extend(label[:i] + label[i + 1:]
                          for i in range(len(label)))
            for probe in probes:
                ranks = buckets.get((suffix, probe))
                if not ranks:
                    continue
                for rank in ranks:
                    if rank not in found and within_one_edit(
                            label, world_parts(rank)[0]):
                        found.add(rank)
        # filler targets: a filler label is a stem S then str(i).  With
        # L the query's non-digits and D its digits (each in order), one
        # edit of S + str(i) leaves the digit run alone (i = int(D)),
        # writes a digit ahead of str(i) (i = int(D[1:])), stays in the
        # digits or swaps across the boundary (S = L), or puts a
        # non-digit after every stem letter (S = L[:-1]).  Those are two
        # direct indices and two stem-table probes, each confirmed
        # exactly against S + str(i).  The length gate and the
        # foreign-character prune skip queries no single edit can turn
        # into a filler label (a filler has no character outside a-z0-9,
        # and one edit removes at most one foreign character).
        length = len(label)
        if (suffix == "com" and 4 <= length <= self._filler_len_max + 1
                and sum(ch not in _FILLER_CHARS for ch in label) < 2):
            world = self.world
            count = self._n_fillers
            letters = label.translate(_NO_DIGITS)
            digits = _NON_DIGITS.sub("", label)
            stems = {index: stem for stem in (letters, letters[:-1])
                     for index in world.filler_indices(stem, count)}
            for run in (digits, digits[1:]):
                index = int(run) if run else count
                if index < count and index not in stems:
                    stems[index] = world._filler_stem(index)
            first_rank = self._n_head + 1
            for index, stem in stems.items():
                if within_one_edit(label, stem + str(index)):
                    found.add(first_rank + index)
        return tuple(sorted(found))

    def brute_force_candidate_ranks(self, domain: str) -> Tuple[int, ...]:
        """Reference retrieval: a DL scan over every materialized target.

        The oracle the parity suite compares :meth:`candidate_ranks`
        against — O(max_rank) targets, each decided by the DL kernel,
        exact by definition.  Three lower bounds of the distance skip
        the kernel for pairs that provably sit more than one edit apart:
        the length gap; the lead (two labels of two or more characters
        within one edit share a character among their first two); and
        the bag distance (every edit moves at most one character into
        and one out of the label's multiset).
        """
        try:
            label, suffix = split_domain(normalize_query(domain))
        except ValueError:
            return ()
        out = []
        name_of = self.world.target_domain
        length = len(label)
        lead = label[:2] if length > 1 else ""
        chars = Counter(label)
        for rank in range(1, self.max_rank + 1):
            # a target's label is its name's first dot-separated part
            t_label, _, t_suffix = name_of(rank).partition(".")
            if t_suffix != suffix or abs(len(t_label) - length) > 1:
                continue
            if (lead and len(t_label) > 1 and t_label[0] not in lead
                    and t_label[1] not in lead):
                continue
            t_chars = Counter(t_label)
            if (sum((chars - t_chars).values()) > 1
                    or sum((t_chars - chars).values()) > 1):
                continue
            if damerau_levenshtein(label, t_label) <= 1:
                out.append(rank)
        return tuple(out)

    # -- registration ground truth ----------------------------------------

    def is_registered_typo(self, label: str, rank: int,
                           edit: Optional[Tuple[str, int]]) -> bool:
        """Is ``label`` (under the rank's suffix) a live ctypo of ``rank``?

        ``edit`` is ``classify_edit`` of the rank's label and ``label``.
        One slot of the world's registration law at the rank's churn
        generation (:meth:`WorldModel.registers_typo`), so the index
        keeps no per-rank registration state.
        """
        return self.world.registers_typo(rank, label, edit)

    # -- churn deltas ------------------------------------------------------

    def _delta_against(self, schedule: ChurnSchedule,
                       day: int) -> Tuple[Dict[int, int], List[int]]:
        """Validate ``schedule`` and diff its day-``day`` churn vs ours."""
        if schedule.seed != self.seed:
            raise ConfigError(
                f"churn schedule seed {schedule.seed} does not match "
                f"index seed {self.seed}")
        if schedule.max_rank < self.max_rank:
            raise ConfigError(
                f"churn schedule covers ranks 1..{schedule.max_rank}, "
                f"index needs 1..{self.max_rank}")
        new_churn = schedule.generations(day)
        old_churn = self._churn
        changed = [rank for rank in set(old_churn) | set(new_churn)
                   if rank <= self.max_rank
                   and old_churn.get(rank, 0) != new_churn.get(rank, 0)]
        return new_churn, changed

    def apply_delta(self, schedule: ChurnSchedule, day: int) -> int:
        """Evolve the index to churn day ``day``; returns ranks touched.

        Target *identities* never churn, so the candidate buckets and
        the membership law are untouched; only the world's per-rank
        streams re-key, which moves the registration answers of the
        ranks whose generation changed.  The delta tests pin the result
        equal to a fresh index built over the evolved world.

        An *empty* delta — no rank's generation moves (and so every
        memoized verdict is still valid) — is a no-op: the epoch does
        not bump, so resident engines keep their warm memos.  Only the
        bookkeeping ``day`` advances.
        """
        new_churn, changed = self._delta_against(schedule, day)
        if not changed:
            self.day = day
            return 0
        self.world = self.world.evolved(new_churn or None)
        self._churn = new_churn
        self.day = day
        self.epoch += 1
        return len(changed)

    def evolved_generation(self, schedule: ChurnSchedule,
                           day: int) -> Tuple["TypoRiskIndex", int]:
        """Phase one of a hot swap: build the next generation off to the
        side, leaving this index untouched and serving.

        Returns ``(new_index, changed)``.  The new index shares the
        world's immutable chunk caches, carries ``epoch = self.epoch +
        1`` so a publishing engine's epoch guard retires stale memos, and
        is pinned byte-identical (``canonical_dict``) to a fresh build
        over the evolved world.  When nothing churned the caller should
        skip the swap entirely — this method still returns a coherent
        generation for callers that want one.
        """
        new_churn, changed = self._delta_against(schedule, day)
        new_index = TypoRiskIndex(self.seed, self.max_rank,
                                  config=self.config,
                                  churn=new_churn, day=day)
        new_index.world = self.world.evolved(new_churn or None)
        new_index.epoch = self.epoch + 1
        return new_index, len(changed)

    # -- persistence (repro-risk-index@1) ----------------------------------

    def canonical_dict(self) -> Dict:
        payload = self._payload_dict()
        payload["digest"] = json_digest(payload)
        return payload

    def _payload_dict(self) -> Dict:
        return {
            "format": RISK_INDEX_FORMAT,
            "seed": self.seed,
            "max_rank": self.max_rank,
            "day": self.day,
            "churn": [[rank, generation] for rank, generation
                      in sorted(self._churn.items())],
            "config_digest": _config_digest(self.config),
            "head_buckets": {
                suffix: {variant: list(ranks)
                         for (s, variant), ranks
                         in self._head_buckets.items() if s == suffix}
                for suffix in sorted({s for s, _ in self._head_buckets})},
        }

    def save(self, path: Union[str, Path]) -> None:
        """Atomically persist the index."""
        save_artifact(path, self._payload_dict())

    @classmethod
    def load(cls, path: Union[str, Path], *,
             config: Optional[InternetConfig] = None) -> "TypoRiskIndex":
        """Load and validate an index written by :meth:`save`.

        Validation is belt and braces: the self-digest catches torn or
        edited files, and the candidate buckets are *re-derived* from
        the file's identity and compared — the artifact can therefore
        never make the service disagree with the world law it claims to
        serve.  Unreadable/tampered files raise
        :class:`CheckpointCorruptError`; a file built against a
        different world config raises :class:`CheckpointMismatchError`.
        """
        def decode(data: Dict) -> "TypoRiskIndex":
            churn = {int(rank): int(generation)
                     for rank, generation in data["churn"]}
            index = cls(int(data["seed"]), int(data["max_rank"]),
                        config=config, churn=churn, day=int(data["day"]))
            if _config_digest(index.config) != data["config_digest"]:
                raise CheckpointMismatchError(
                    f"risk index {path} was built for a different world "
                    f"config")
            if index._payload_dict()["head_buckets"] != data["head_buckets"]:
                raise CheckpointCorruptError(
                    f"risk index {path} candidate buckets do not match the "
                    f"world law for seed {index.seed}; the file was "
                    f"tampered with or belongs to another build")
            return index

        return load_artifact(path, _ARTIFACT, decode)
