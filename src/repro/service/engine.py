"""Layered risk engine: the serving surface of the typo-risk service.

The classification shape follows the layered engine idiom (rules →
candidate retrieval → scorer → review-queue fallback), specialized to
the paper's online question "is this domain a plausible ctypo of a
top-ranked target, and how risky is it?":

1. **rules** — parse/normalize (an unparseable query is ``invalid``,
   never an exception), then operator allow/block lists;
2. **exact-target short-circuit** — one O(1) probe of the membership
   law answers the overwhelmingly common case (the domain *is* a
   target) without touching any kernel;
3. **index candidate retrieval** — the precomputed
   :class:`~repro.service.index.TypoRiskIndex` finds every target
   within one edit; no candidates means ``unrelated``;
4. **kernel scoring** — each candidate is scored with the memoized
   edit/fat-finger/visual kernels, the paper's edit-type priors
   (Figure 9: deletions/transpositions dominate received traffic), a
   rank-popularity weight, and a decisive escalation when the query is
   a ctypo the world actually *registered*;
5. **policy tiers** — :class:`~repro.defenses.risktiers.RiskPolicy`
   maps the score to block/rewrite/flag/review/allow; review-band
   verdicts are queued for humans (the fallback layer).

Every verdict is a pure function of ``(seed, max_rank, config, churn,
policy, query)`` — :meth:`RiskEngine.lookup_bruteforce` recomputes it
with the O(max_rank) all-targets scan in place of the index, and the
parity suite pins the two byte-identical.  The resident hot path is a
bounded verdict memo in front of the layers: a warm mixed workload
serves from one dict probe per lookup.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.distances import (
    classify_edit,
    fat_finger_for_edit,
    visual_distance_for_edit,
)
from repro.core.typogen import split_domain
from repro.defenses.risktiers import TIER_ACTIONS, RiskPolicy
from repro.ecosystem.delta import ChurnSchedule
from repro.service.index import TypoRiskIndex, normalize_query
from repro.util.artifact import canonical_json
from repro.util.perf import PerfRegistry

__all__ = ["RiskVerdict", "RiskEngine", "AdmissionPolicy",
           "AdmissionController"]

#: edit-type priors (paper Figure 9): deletions and transpositions
#: receive the most misdirected traffic, additions the least — the same
#: priors the autocorrect defense ranks suggestions with
_EDIT_PRIOR = {
    "deletion": 1.0,
    "transposition": 0.9,
    "substitution": 0.45,
    "addition": 0.25,
}


@dataclass(frozen=True)
class RiskVerdict:
    """One lookup's complete answer, canonical and picklable.

    ``verdict`` is the classification (``clean`` / ``typo_risk`` /
    ``unrelated`` / ``invalid``), ``tier``/``action`` the policy
    decision, ``source`` the layer that decided (``rules`` / ``exact``
    / ``index`` / ``scorer``).  ``candidates`` lists every target
    within one edit, rank-ascending; the ``target``/edit fields
    describe the best-scoring one.
    """

    query: str
    domain: str
    verdict: str
    tier: str
    action: str
    source: str
    target: Optional[str]
    target_rank: Optional[int]
    edit_type: Optional[str]
    fat_finger: bool
    visual: Optional[float]
    registered: bool
    score: float
    candidates: Tuple[str, ...]

    def canonical_dict(self) -> Dict:
        return {
            "query": self.query,
            "domain": self.domain,
            "verdict": self.verdict,
            "tier": self.tier,
            "action": self.action,
            "source": self.source,
            "target": self.target,
            "target_rank": self.target_rank,
            "edit_type": self.edit_type,
            "fat_finger": self.fat_finger,
            "visual": self.visual,
            "registered": self.registered,
            "score": self.score,
            "candidates": list(self.candidates),
        }

    def canonical_json(self) -> str:
        """The byte form the parity suite compares."""
        return canonical_json(self.canonical_dict())


def _flat_verdict(query: str, domain: str, verdict: str, tier: str,
                  action: str, source: str,
                  candidates: Tuple[str, ...] = (),
                  target: Optional[str] = None,
                  target_rank: Optional[int] = None,
                  score: float = 0.0) -> RiskVerdict:
    return RiskVerdict(
        query=query, domain=domain, verdict=verdict, tier=tier,
        action=action, source=source, target=target,
        target_rank=target_rank, edit_type=None, fat_finger=False,
        visual=None, registered=False, score=score, candidates=candidates)


# -- admission control ----------------------------------------------------
#
# Overload is modeled, not measured: each admitted lookup charges a
# deterministic cost into a virtual queue that drains at a fixed rate per
# lookup slot.  Because the depth is a pure fold over (lane, injected
# stall) per sequence number — never wall-clock, never memo state — the
# same (seed, plan, workload) triple sheds the same lookups on every
# machine and at every --jobs count.


@dataclass(frozen=True)
class AdmissionPolicy:
    """Thresholds for the deterministic queue-depth overload model.

    ``drain_ms`` is the virtual service capacity reclaimed per lookup
    slot; lane costs charge against it.  When the modeled backlog
    reaches ``review_shed_depth`` the engine stops enqueueing
    review-band verdicts (level 1 — bookkeeping sheds first); at
    ``scorer_shed_depth`` it sheds the scorer itself and answers
    conservatively (level 2).  Rules/exact fast paths are O(1) and are
    never shed.
    """

    drain_ms: float = 2.0
    review_shed_depth: float = 40.0
    scorer_shed_depth: float = 120.0
    fast_cost_ms: float = 0.05
    degraded_cost_ms: float = 0.3
    scorer_cost_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.drain_ms <= 0:
            raise ValueError("drain_ms must be positive")
        if not 0 < self.review_shed_depth <= self.scorer_shed_depth:
            raise ValueError(
                "shed depths must satisfy 0 < review_shed_depth <= "
                f"scorer_shed_depth, got {self.review_shed_depth} / "
                f"{self.scorer_shed_depth}")
        for name in ("fast_cost_ms", "degraded_cost_ms", "scorer_cost_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def level_for(self, depth: float) -> int:
        """Overload level (0 admit / 1 shed reviews / 2 shed scorer)."""
        if depth >= self.scorer_shed_depth:
            return 2
        if depth >= self.review_shed_depth:
            return 1
        return 0


class AdmissionController:
    """Mutable fold state of the :class:`AdmissionPolicy` queue model.

    ``arrive()`` reads the overload level *before* the lookup is
    served; ``charge(cost_ms)`` folds the lookup's modeled cost in
    afterwards, so shedding a lookup genuinely relieves the modeled
    backlog.  Counters mirror into the optional
    :class:`~repro.util.perf.PerfRegistry` under ``service.*``.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None, *,
                 perf: Optional[PerfRegistry] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.perf = perf
        self.depth_ms = 0.0
        self.admitted = 0
        self.shed_lookups = 0
        self.shed_reviews = 0

    def arrive(self) -> int:
        """Overload level for the lookup about to be served."""
        return self.policy.level_for(self.depth_ms)

    def charge(self, cost_ms: float) -> None:
        """Fold one served lookup's modeled cost into the backlog."""
        self.admitted += 1
        self.depth_ms = max(
            0.0, self.depth_ms + cost_ms - self.policy.drain_ms)

    def record_shed_lookup(self) -> None:
        self.shed_lookups += 1
        if self.perf is not None:
            self.perf.count("service.shed_lookups")

    def record_shed_review(self) -> None:
        self.shed_reviews += 1
        if self.perf is not None:
            self.perf.count("service.shed_reviews")

    def as_dict(self) -> Dict[str, float]:
        return {"admitted": self.admitted,
                "shed_lookups": self.shed_lookups,
                "shed_reviews": self.shed_reviews,
                "depth_ms": self.depth_ms}


class RiskEngine:
    """Resident query engine over a :class:`TypoRiskIndex`.

    ``allowlist``/``blocklist`` are operator overrides (normalized
    domains); ``policy`` owns the score thresholds.  The engine memoizes
    verdicts by raw query string in two bounded generations (new/old
    dicts): filling the new generation shifts it to old and drops the
    previous old, so a warm memo degrades to ~50% retained instead of
    falling off a cliff to 0% at the capacity boundary.  Verdicts are
    pure, so which half survives is irrelevant for correctness.  A
    bounded review queue holds verdicts the policy could not place
    confidently.
    """

    def __init__(self, index: TypoRiskIndex, *,
                 policy: Optional[RiskPolicy] = None,
                 allowlist: Iterable[str] = (),
                 blocklist: Iterable[str] = (),
                 max_cached_verdicts: int = 1 << 15,
                 review_limit: int = 1024,
                 scorer: str = "rules",
                 model=None,
                 perf: Optional[PerfRegistry] = None) -> None:
        if scorer not in ("rules", "learned"):
            from repro.util.errors import ConfigError
            raise ConfigError(f"unknown scorer {scorer!r}; expected "
                              "rules or learned")
        if scorer == "learned" and model is None:
            from repro.util.errors import ConfigError
            raise ConfigError("scorer='learned' needs a loaded "
                              "repro-typo-model@1 (see `repro train`)")
        self.index = index
        self.scorer = scorer
        self.model = model
        #: per-rank registered-state cache for the learned scorer
        #: (label -> DomainState); bounded, dropped on epoch change
        self._state_cache: Dict[int, Dict] = {}
        self.policy = policy or RiskPolicy()
        self._allow = frozenset(normalize_query(d) for d in allowlist)
        self._block = frozenset(normalize_query(d) for d in blocklist)
        self._max_cached = max(1, int(max_cached_verdicts))
        #: each generation holds half the budget; new + old <= max
        self._gen_capacity = max(1, self._max_cached // 2)
        self._verdicts: Dict[str, RiskVerdict] = {}
        self._verdicts_old: Dict[str, RiskVerdict] = {}
        self._hits = 0
        self._misses = 0
        self._epoch = index.epoch
        #: bumped once per swap_model publish (lifecycle promotes)
        self.model_epoch = 0
        self.perf = perf
        #: review-band verdicts awaiting a human, most recent last
        self.review_queue: Deque[RiskVerdict] = deque(maxlen=review_limit)

    # -- the resident hot path --------------------------------------------

    def lookup(self, query: str) -> RiskVerdict:
        """Classify one query, serving repeats from the verdict memo."""
        return self.serve_full(query)

    def serve_full(self, query: str, *,
                   enqueue_review: bool = True) -> RiskVerdict:
        """The full layered path behind :meth:`lookup`.

        ``enqueue_review=False`` is the level-1 load-shedding hook:
        the verdict is still computed and memoized, but review-band
        bookkeeping (the human queue append) is skipped.
        """
        self._sync_epoch()
        cached = self._memo_probe(query)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        verdict = self._classify(query, self.index.candidate_ranks)
        self._remember(verdict, enqueue_review=enqueue_review)
        return verdict

    def _sync_epoch(self) -> None:
        if self._epoch != self.index.epoch:
            # a churn delta landed since the memo warmed; stale verdicts
            # must not outlive the world that produced them
            self.clear_verdict_memo()
            self._epoch = self.index.epoch

    def lookup_bruteforce(self, query: str) -> RiskVerdict:
        """The same classification with brute-force candidate retrieval.

        No memo, no review-queue side effects: this is the reference
        path the parity suite compares :meth:`lookup` against, byte for
        byte (``canonical_json``).
        """
        return self._classify(query,
                              self.index.brute_force_candidate_ranks)

    def batch_lookup(self, queries: Sequence[str], *,
                     jobs: Optional[int] = None) -> List[RiskVerdict]:
        """Classify a stream of queries, optionally fanned out.

        The serial path amortizes per-call overhead through the shared
        memo; ``jobs > 1`` partitions the stream across worker
        processes (the resilient server's shards under the empty fault
        plan) and folds the computed verdicts back into the resident
        memo, review queue and hit/miss counters, so verdicts and
        resident state are identical to serial lookups.
        """
        work = list(queries)
        if (jobs is None or jobs <= 1 or len(work) <= 1
                or self.scorer != "rules"):
            # the learned scorer stays resident: its model + state cache
            # don't ship to shard workers, and the memo amortizes anyway
            lookup = self.lookup
            return [lookup(query) for query in work]
        from repro.faultsim.plan import FaultPlan
        from repro.service.health import fan_out_lookups

        out = fan_out_lookups(self, work, jobs, plan=FaultPlan.empty(),
                              perf=self.perf)
        self._sync_epoch()
        for verdict in out:
            if self._memo_probe(verdict.query) is None:
                self._misses += 1
                self._remember(verdict)
            else:
                self._hits += 1
        return out

    def apply_delta(self, schedule: ChurnSchedule, day: int) -> int:
        """Evolve the index to churn day ``day`` and drop stale verdicts.

        Since the hot-swap rework this is an alias for :meth:`hot_swap`
        without artifact persistence: the evolved generation is built
        off to the side and published atomically, and an *empty* delta
        (no rank churned, epoch unchanged) keeps the warm memo instead
        of invalidating it.
        """
        return self.hot_swap(schedule, day)

    def hot_swap(self, schedule: ChurnSchedule, day: int, *,
                 artifact_path: Optional[str] = None,
                 phase_hook: Optional[Callable[[str], None]] = None) -> int:
        """Two-phase crash-safe generation swap to churn day ``day``.

        Phase one builds the evolved :class:`TypoRiskIndex` off to the
        side (the resident generation keeps serving; nothing observable
        mutates).  Phase two optionally persists the new generation to
        ``artifact_path`` (atomic tmp+fsync+rename, so a kill leaves
        either the old artifact or the new one — both loadable) and
        then publishes it with a single attribute assignment; the epoch
        guard in :meth:`serve_full` retires the old generation's memo
        on the next lookup.  A kill at *any* point therefore leaves a
        doctor-valid engine that resumes from one of the two
        generations.  ``phase_hook`` is the torn-swap injection point:
        it is called with ``"built"`` (after phase one) and ``"saved"``
        (after artifact persistence, before publication) so chaos tests
        can SIGKILL mid-swap deterministically.

        An empty delta (no rank's generation moved) skips persistence,
        publication, and memo invalidation entirely — only the
        bookkeeping ``day`` advances.  Returns the number of ranks
        whose generation changed.
        """
        new_index, changed = self.index.evolved_generation(schedule, day)
        if changed == 0 and self._epoch == self.index.epoch:
            self.index.day = day
            return 0
        if phase_hook is not None:
            phase_hook("built")
        if artifact_path is not None:
            new_index.save(artifact_path)
        if phase_hook is not None:
            phase_hook("saved")
        self.index = new_index          # the atomic publish
        self.clear_verdict_memo()
        self._epoch = new_index.epoch
        return changed

    def swap_model(self, model) -> int:
        """Publish a new learned model (the lifecycle's promote hook).

        Single attribute assignment plus exactly one memo flush —
        verdicts memoized under the old model must not outlive it, but
        the world index, its epoch, and the engine's layered config are
        untouched (the drift lifecycle swaps models without re-churning
        the world).  ``model_epoch`` counts publishes so tests can pin
        "exactly one invalidation per swap".  A no-op swap (same object)
        keeps the warm memo.
        """
        if model is self.model:
            return self.model_epoch
        if self.scorer == "learned" and model is None:
            from repro.util.errors import ConfigError
            raise ConfigError("scorer='learned' cannot swap to a null "
                              "model")
        self.model = model
        self.clear_verdict_memo()
        self.model_epoch += 1
        return self.model_epoch

    def cache_stats(self) -> Dict[str, int]:
        """Verdict-memo counters; reset alongside the memo.

        ``hits``/``misses`` zero whenever :meth:`clear_verdict_memo`
        runs (epoch guard, hot swap, explicit clear) — the same
        convention as ``clear_kernel_caches`` — so the stats always
        describe the *current* memo generation pair, and hit-rate math
        never mixes worlds.  ``size`` spans both generations.
        """
        return {"hits": self._hits, "misses": self._misses,
                "size": len(self._verdicts) + len(self._verdicts_old)}

    def clear_verdict_memo(self) -> None:
        """Drop both memo generations and zero the hit/miss counters."""
        self._verdicts = {}
        self._verdicts_old = {}
        self._state_cache = {}
        self._hits = 0
        self._misses = 0

    def shrink_memo(self) -> int:
        """Memory-pressure relief: drop the old generation only.

        Returns how many memoized verdicts were released.  The new
        generation survives, so the hot set keeps most of its warmth;
        verdict *content* is untouched (verdicts are pure), which is
        what lets chaos replay pin memory-pressure events as invisible
        in the verdict stream.
        """
        dropped = len(self._verdicts_old)
        self._verdicts_old = {}
        return dropped

    def _memo_probe(self, query: str) -> Optional[RiskVerdict]:
        """Probe both generations; promote an old-generation hit."""
        verdict = self._verdicts.get(query)
        if verdict is not None:
            return verdict
        verdict = self._verdicts_old.pop(query, None)
        if verdict is not None:
            self._store(verdict)
        return verdict

    def _store(self, verdict: RiskVerdict) -> None:
        if len(self._verdicts) >= self._gen_capacity:
            # shift-and-drop: the new generation ages into old, the
            # previous old generation is released
            self._verdicts_old = self._verdicts
            self._verdicts = {}
        self._verdicts[verdict.query] = verdict

    def _remember(self, verdict: RiskVerdict, *,
                  enqueue_review: bool = True) -> None:
        self._store(verdict)
        if enqueue_review and verdict.action == "review":
            self.review_queue.append(verdict)

    # -- degraded & conservative lanes ------------------------------------
    #
    # The resilient server (repro.service.health) answers from these
    # when the health state machine or admission control takes the
    # full scorer off the table.  All three are memo-independent pure
    # functions of the query: no memo probe, no memoization, no review
    # bookkeeping — which is what keeps chaos-lane verdict streams
    # byte-identical across --jobs fan-outs with per-shard memos.

    def fast_verdict(self, query: str) -> Optional[RiskVerdict]:
        """The O(1) layers only: rules + exact-target short circuit.

        Returns ``None`` when the query needs candidate retrieval —
        the signal the admission model uses to classify lane cost, and
        the reason these verdicts are never shed.
        """
        return self._fast_classify(query)[3]

    def degraded_lookup(self, query: str, *,
                        floor_tier: str = "medium") -> RiskVerdict:
        """Degraded-mode answer: rules + exact + index retrieval only.

        The kernel scorer is bypassed; any query with a candidate
        target within one edit gets the conservative ``floor_tier``
        verdict (source ``degraded``), biased toward caution because
        the scorer that would discriminate is unavailable.  Candidate
        order and the reported target (the lowest-ranked, i.e. most
        popular, candidate) stay deterministic.  Never raises.
        """
        domain, label, suffix, fast = self._fast_classify(query)
        if fast is not None:
            return fast
        ranks = self.index.candidate_ranks(domain)
        if not ranks:
            return _flat_verdict(query, domain, "unrelated", "none",
                                 "allow", "degraded")
        parts = self.index.world.target_parts
        names = tuple(f"{t_label}.{t_suffix}" for t_label, t_suffix
                      in (parts(rank) for rank in ranks))
        tier, action, score = self._floor(floor_tier)
        return _flat_verdict(query, domain, "typo_risk", tier, action,
                             "degraded", candidates=names,
                             target=names[0], target_rank=ranks[0],
                             score=score)

    def conservative_verdict(self, query: str, *, source: str,
                             floor_tier: str = "medium") -> RiskVerdict:
        """No-retrieval fallback for shed / rules-only / probe-failure.

        Rules and the exact-target probe still run (both O(1)); any
        other parseable query gets the ``floor_tier`` verdict labeled
        with ``source`` (``shed`` / ``rules_only`` / ``degraded``) so
        replay suites can pin exactly which lane answered.
        """
        domain, label, suffix, fast = self._fast_classify(query)
        if fast is not None:
            return fast
        tier, action, score = self._floor(floor_tier)
        return _flat_verdict(query, domain, "typo_risk", tier, action,
                             source, score=score)

    def _floor(self, floor_tier: str) -> Tuple[str, str, float]:
        """(tier, action, score) for a conservative floor tier."""
        thresholds = {"critical": self.policy.critical,
                      "high": self.policy.high,
                      "medium": self.policy.medium,
                      "review": self.policy.review}
        if floor_tier not in thresholds:
            raise ValueError(
                f"unknown floor tier {floor_tier!r}; "
                f"expected one of {sorted(thresholds)}")
        return floor_tier, TIER_ACTIONS[floor_tier], thresholds[floor_tier]

    # -- the layered classifier -------------------------------------------

    def _fast_classify(self, query: str) -> Tuple[
            str, Optional[str], Optional[str], Optional[RiskVerdict]]:
        """Layers 1-2: ``(domain, label, suffix, verdict-or-None)``.

        A non-``None`` verdict means rules or the exact-target probe
        decided; ``None`` means the query needs retrieval/scoring.
        """
        domain = normalize_query(query)
        try:
            label, suffix = split_domain(domain)
        except ValueError:
            return domain, None, None, _flat_verdict(
                query, domain, "invalid", "none", "allow", "rules")
        if domain in self._block:
            return domain, label, suffix, _flat_verdict(
                query, domain, "typo_risk", "critical", "block", "rules",
                score=1.0)
        if domain in self._allow:
            return domain, label, suffix, _flat_verdict(
                query, domain, "clean", "none", "allow", "rules")
        rank = self.index.target_rank(domain)
        if rank is not None:
            return domain, label, suffix, _flat_verdict(
                query, domain, "clean", "none", "allow", "exact",
                target=domain, target_rank=rank)
        return domain, label, suffix, None

    def _classify(self, query: str,
                  retrieval: Callable[[str], Tuple[int, ...]]
                  ) -> RiskVerdict:
        domain, label, suffix, fast = self._fast_classify(query)
        if fast is not None:
            return fast
        ranks = retrieval(domain)
        if not ranks:
            return _flat_verdict(query, domain, "unrelated", "none",
                                 "allow", "index")
        return self._score(query, domain, label, suffix, ranks)

    def _score(self, query: str, domain: str, label: str, suffix: str,
               ranks: Tuple[int, ...]) -> RiskVerdict:
        """Layer 4: kernel-score every candidate, keep the riskiest.

        Ties break to the lowest rank (``ranks`` ascends and only a
        strictly better score displaces the incumbent), so the verdict
        is deterministic for any candidate order the retrieval yields.

        With ``scorer="learned"`` the registered candidates are scored
        by the domain-lane model instead (one vectorized pass); queries
        with no registered candidate fall through to the rules law, the
        only signal available for typos nobody bought.
        """
        if self.scorer == "learned":
            verdict = self._score_learned(query, domain, label, suffix,
                                          ranks)
            if verdict is not None:
                return verdict
        index = self.index
        parts = index.world.target_parts
        best_score = -1.0
        best: Optional[Tuple] = None
        names: List[str] = []
        for rank in ranks:
            t_label, t_suffix = parts(rank)
            names.append(f"{t_label}.{t_suffix}")
            # retrieval guarantees DL exactly 1 here: distance 0 was
            # short-circuited by the exact layer
            op, edit_index = edit = classify_edit(t_label, label)
            char = (label[edit_index]
                    if op in ("substitution", "addition") else "")
            fat_finger = fat_finger_for_edit(t_label, op, edit_index,
                                             char) == 1
            visual = visual_distance_for_edit(t_label, op, edit_index, char)
            registered = index.is_registered_typo(label, rank, edit)
            popularity = 1.0 / (1.0 + math.log10(rank))
            base = (_EDIT_PRIOR[op]
                    * (1.0 / (1.0 + visual))
                    * (1.25 if fat_finger else 1.0)
                    * (0.4 + 0.6 * popularity))
            base = min(1.0, base)
            # a *live* registration is the paper's smoking gun: someone
            # paid to harvest this mistake, so the floor jumps past the
            # review band and quality only moves the score within the
            # high tiers
            score = 0.55 + 0.45 * base if registered else 0.6 * base
            if score > best_score:
                best_score = score
                best = (rank, f"{t_label}.{t_suffix}", op, fat_finger,
                        visual, registered)
        rank, target, op, fat_finger, visual, registered = best
        tier, action = self.policy.tier_for(best_score)
        return RiskVerdict(
            query=query, domain=domain, verdict="typo_risk", tier=tier,
            action=action, source="scorer", target=target,
            target_rank=rank, edit_type=op, fat_finger=fat_finger,
            visual=visual, registered=registered, score=best_score,
            candidates=tuple(names))

    def _rank_states(self, rank: int) -> Dict:
        """``label -> DomainState`` for one rank's registered ctypos.

        Built lazily from the world's exact record stream and cached
        (bounded; the epoch-change memo flush drops it too) — the
        learned scorer pays the rank walk once per resident rank, then
        every later query against it is a dict probe plus the matmul.
        """
        states = self._state_cache.get(rank)
        if states is None:
            if len(self._state_cache) >= 4096:
                self._state_cache = {}
            world = self.index.world
            grid = world.rank_grid(rank)
            states = {split_domain(state.domain)[0]: state
                      for state in world.iter_rank_states(rank, grid)}
            self._state_cache[rank] = states
        return states

    def _score_learned(self, query: str, domain: str, label: str,
                       suffix: str,
                       ranks: Tuple[int, ...]) -> Optional[RiskVerdict]:
        """Model-score the registered candidates; None = fall back.

        The domain lane was trained on the scan pipeline's registered
        population, so only registered candidates are in-distribution;
        each contributes one feature row (its true world state) and the
        whole candidate set is scored in a single vectorized pass.
        """
        from repro.features.domains import state_feature_row

        index = self.index
        parts = index.world.target_parts
        candidates = []
        names: List[str] = []
        for rank in ranks:
            t_label, t_suffix = parts(rank)
            names.append(f"{t_label}.{t_suffix}")
            edit = classify_edit(t_label, label)
            if not index.is_registered_typo(label, rank, edit):
                continue
            state = self._rank_states(rank).get(label)
            if state is not None:
                candidates.append((rank, t_label, t_suffix, edit, state))
        if not candidates:
            return None
        import numpy as np

        rows = np.vstack([state_feature_row(candidate[-1])
                          for candidate in candidates])
        scores = self.model.domain.scores(rows)
        best_pos = 0
        for pos in range(1, len(candidates)):
            if scores[pos] > scores[best_pos]:
                best_pos = pos
        rank, t_label, t_suffix, (op, edit_index), _ = candidates[best_pos]
        best_score = float(scores[best_pos])
        char = (label[edit_index]
                if op in ("substitution", "addition") else "")
        fat_finger = fat_finger_for_edit(t_label, op, edit_index, char) == 1
        visual = visual_distance_for_edit(t_label, op, edit_index, char)
        tier, action = self.policy.tier_for(best_score)
        return RiskVerdict(
            query=query, domain=domain, verdict="typo_risk", tier=tier,
            action=action, source="scorer", target=f"{t_label}.{t_suffix}",
            target_rank=rank, edit_type=op, fat_finger=fat_finger,
            visual=visual, registered=True, score=best_score,
            candidates=tuple(names))
