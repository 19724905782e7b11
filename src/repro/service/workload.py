"""Seeded lookup workload: what millions of mail servers would ask.

The serving benchmark needs traffic shaped like the operational reality
the paper implies: mostly *clean* domains (users type correctly),
a Zipf-ish skew toward popular targets (rank drawn log-uniformly, so
rank 1 is ~``log(max_rank)`` times likelier than rank ``max_rank``), a
tail of generated typos (gtypos), the rare *registered* typo (ctypo —
the needle the service exists to find), and junk: unrelated domains,
addresses, unicode, over-long labels, bare TLDs.

Queries draw from finite per-category pools built once at construction,
which mirrors real traffic (the same popular domains recur constantly)
and gives the benchmark a well-defined *warm* regime: after one pass
over the pools, every lookup is a verdict-memo hit.  Everything is a
pure function of ``(seed, max_rank, config, pool sizes, mix)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.typogen import apply_edit, enumerate_edit_ops
from repro.ecosystem.internet import InternetConfig
from repro.ecosystem.world import WorldModel, _spell
from repro.util.rand import SeededRng, derive_seed

__all__ = ["WorkloadMix", "LookupWorkload"]

#: hand-picked pathological queries every junk pool includes — the
#: service must answer these, not raise (the property suite pins that)
_EDGE_QUERIES: Tuple[str, ...] = (
    "",
    ".",
    "com",
    "@",
    "user@",
    "gmail",                        # bare label, no TLD
    "GMAIL.COM.",                   # case + trailing dot (clean after parse)
    "user@gmial.com",               # address form of a deletion typo
    "gmáil.com",               # unicode confusable
    "пример.com",  # non-latin label
    "-gmail-.com",
    "a" * 70 + ".com",              # label beyond the DNS length rule
    "zzzz123.com",                  # filler-shaped but not a filler
)


@dataclass(frozen=True)
class WorkloadMix:
    """Category weights for the lookup stream (need not sum to 1)."""

    clean: float = 0.55
    gtypo: float = 0.25
    ctypo: float = 0.12
    junk: float = 0.08

    def __post_init__(self) -> None:
        weights = (self.clean, self.gtypo, self.ctypo, self.junk)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("mix weights must be non-negative and "
                             "sum to a positive total")


class LookupWorkload:
    """Deterministic generator of a mixed lookup stream."""

    def __init__(self, seed: int, max_rank: int, *,
                 config: Optional[InternetConfig] = None,
                 pool_size: int = 4096,
                 mix: Optional[WorkloadMix] = None,
                 world: Optional[WorldModel] = None) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.seed = seed
        self.max_rank = max_rank
        self.pool_size = pool_size
        self.mix = mix or WorkloadMix()
        world = world or WorldModel(seed, config)
        rng = SeededRng(derive_seed(seed, "lookup-workload"))
        self._clean = self._build_clean(world, rng.child("clean"))
        self._gtypo = self._build_gtypos(world, rng.child("gtypo"))
        self._ctypo = self._build_ctypos(world, rng.child("ctypo"))
        self._junk = self._build_junk(rng.child("junk"))
        self._pools = (self._clean, self._gtypo, self._ctypo, self._junk)
        total = (self.mix.clean + self.mix.gtypo + self.mix.ctypo
                 + self.mix.junk)
        acc = 0.0
        cuts: List[float] = []
        for weight in (self.mix.clean, self.mix.gtypo, self.mix.ctypo):
            acc += weight / total
            cuts.append(acc)
        self._cuts = tuple(cuts)

    # -- pool construction -------------------------------------------------

    def _zipfish_rank(self, rng: SeededRng) -> int:
        """Log-uniform rank draw: the head of the list dominates."""
        rank = int(self.max_rank ** rng.random())
        return min(max(rank, 1), self.max_rank)

    def _build_clean(self, world: WorldModel, rng: SeededRng) -> Tuple[str, ...]:
        return tuple(world.target_domain(self._zipfish_rank(rng))
                     for _ in range(self.pool_size))

    def _build_gtypos(self, world: WorldModel, rng: SeededRng) -> Tuple[str, ...]:
        ops_cache: Dict[str, list] = {}
        out: List[str] = []
        while len(out) < self.pool_size:
            rank = self._zipfish_rank(rng)
            label, suffix = world.target_parts(rank)
            ops = ops_cache.get(label)
            if ops is None:
                ops = enumerate_edit_ops(label)
                ops_cache[label] = ops
            if not ops:
                continue
            op, index, char = rng.choice(ops)
            out.append(f"{apply_edit(label, op, index, char)}.{suffix}")
        return tuple(out)

    def _build_ctypos(self, world: WorldModel, rng: SeededRng) -> Tuple[str, ...]:
        """Registered-typo queries — fall back to a gtypo when a drawn
        rank registered nothing (rare at head ranks)."""
        registered_cache: Dict[int, List[str]] = {}
        out: List[str] = []
        while len(out) < self.pool_size:
            domain = None
            for _ in range(12):
                rank = self._zipfish_rank(rng)
                domains = registered_cache.get(rank)
                if domains is None:
                    label, suffix = world.target_parts(rank)
                    domains = [f"{_spell(label, word)}.{suffix}" for _, word, _
                               in world.registered_slots(rank)]
                    registered_cache[rank] = domains
                if domains:
                    domain = rng.choice(domains)
                    break
            if domain is None:
                label, suffix = world.target_parts(self._zipfish_rank(rng))
                ops = enumerate_edit_ops(label)
                op, index, char = rng.choice(ops)
                domain = f"{apply_edit(label, op, index, char)}.{suffix}"
            out.append(domain)
        return tuple(out)

    def _build_junk(self, rng: SeededRng) -> Tuple[str, ...]:
        out: List[str] = list(_EDGE_QUERIES[:self.pool_size])
        suffixes = (".com", ".net", ".org", ".io")
        while len(out) < self.pool_size:
            length = rng.randint(6, 14)
            out.append(rng.token(length) + rng.choice(suffixes))
        return tuple(out[:self.pool_size])

    # -- the stream --------------------------------------------------------

    def pool_entries(self) -> List[str]:
        """Every distinct query the stream can emit (the warmup set)."""
        seen = set()
        out: List[str] = []
        for pool in self._pools:
            for query in pool:
                if query not in seen:
                    seen.add(query)
                    out.append(query)
        return out

    def stream_digest(self, count: int) -> str:
        """SHA-256 over the first ``count`` stream queries.

        The workload's replay identity: the chaos acceptance suite pins
        verdict-stream digests per ``(seed, plan, workload)`` triple,
        and this is the cheap way to assert two runs really served the
        same workload before comparing their verdicts.
        """
        digest = hashlib.sha256()
        for query in self.queries(count):
            digest.update(query.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def queries(self, count: int) -> Iterator[str]:
        """``count`` seeded draws from the mixed pools.

        Every call restarts the same stream — two calls with the same
        ``count`` yield identical sequences.
        """
        rng = SeededRng(derive_seed(self.seed, "lookup-stream"))
        random = rng.random
        cut_clean, cut_gtypo, cut_ctypo = self._cuts
        clean, gtypo, ctypo, junk = self._pools
        n_clean, n_gtypo = len(clean), len(gtypo)
        n_ctypo, n_junk = len(ctypo), len(junk)
        for _ in range(count):
            u = random()
            if u < cut_clean:
                yield clean[int(random() * n_clean)]
            elif u < cut_gtypo:
                yield gtypo[int(random() * n_gtypo)]
            elif u < cut_ctypo:
                yield ctypo[int(random() * n_ctypo)]
            else:
                yield junk[int(random() * n_junk)]
