"""The layered risk engine: verdict parity, memo, batch, persistence.

The serving acceptance contract: every single-lookup verdict is
byte-identical (``canonical_json``) to the brute-force all-targets
path; the batch fan-out returns exactly the serial answers; the verdict
memo is invisible except in the counters; and a persisted index yields
an engine with identical verdicts — while tampered or torn artifacts
refuse to load with the taxonomy's exit-3 errors.
"""

import json

import pytest

from repro.defenses import RiskPolicy, TIER_ACTIONS
from repro.service import (
    LookupWorkload,
    RiskEngine,
    TypoRiskIndex,
    run_serve_bench,
)
from repro.service.workload import _EDGE_QUERIES
from repro.util.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
)

SEED = 606
MAX_RANK = 900


@pytest.fixture(scope="module")
def index():
    return TypoRiskIndex(SEED, MAX_RANK)


@pytest.fixture()
def engine(index):
    return RiskEngine(index)


@pytest.fixture(scope="module")
def sample_queries(index):
    workload = LookupWorkload(SEED, MAX_RANK, pool_size=160,
                              world=index.world)
    return workload.pool_entries()


class TestLayers:
    def test_exact_target_is_clean(self, engine, index):
        verdict = engine.lookup("gmail.com")
        assert (verdict.verdict, verdict.source) == ("clean", "exact")
        assert verdict.target_rank == 1
        verdict = engine.lookup(index.world.target_domain(MAX_RANK))
        assert (verdict.verdict, verdict.source) == ("clean", "exact")

    def test_invalid_input_is_a_verdict_not_an_exception(self, engine):
        for query in ("", ".", "com", "@", "user@"):
            verdict = engine.lookup(query)
            assert (verdict.verdict, verdict.action) == ("invalid", "allow")

    def test_unrelated_domain_allows(self, engine):
        verdict = engine.lookup("completely-unrelated-name.org")
        assert (verdict.verdict, verdict.tier) == ("unrelated", "none")

    def test_typo_scores_and_tiers(self, engine):
        verdict = engine.lookup("gmial.com")
        assert verdict.verdict == "typo_risk"
        assert verdict.target == "gmail.com"
        assert verdict.edit_type == "transposition"
        assert verdict.action == TIER_ACTIONS[verdict.tier]
        assert 0.0 < verdict.score <= 1.0
        assert "gmail.com" in verdict.candidates

    def test_operator_lists_outrank_everything(self, index):
        engine = RiskEngine(index, allowlist=["gmial.com"],
                            blocklist=["gmail.com"])
        assert engine.lookup("gmial.com").verdict == "clean"
        blocked = engine.lookup("GMAIL.COM")
        assert (blocked.verdict, blocked.action, blocked.score) == \
            ("typo_risk", "block", 1.0)

    def test_review_band_queues_for_humans(self, index):
        # widen the review band so a mid-score typo lands in it
        policy = RiskPolicy(critical=0.99, high=0.98, medium=0.97,
                            review=0.01)
        engine = RiskEngine(index, policy=policy)
        verdict = engine.lookup("gmial.com")
        assert (verdict.tier, verdict.action) == ("review", "review")
        assert list(engine.review_queue) == [verdict]
        # repeats serve from the memo without re-queueing
        engine.lookup("gmial.com")
        assert len(engine.review_queue) == 1


class TestBruteForceParity:
    def test_every_workload_query_is_byte_identical(self, engine,
                                                    sample_queries):
        for query in sample_queries:
            fast = engine.lookup(query).canonical_json()
            slow = engine.lookup_bruteforce(query).canonical_json()
            assert fast == slow, query

    def test_edge_queries_are_byte_identical(self, engine):
        for query in _EDGE_QUERIES:
            assert engine.lookup(query).canonical_json() == \
                engine.lookup_bruteforce(query).canonical_json()

    def test_serve_bench_parity_sample_spans_the_pools(self, engine):
        """The parity sample strides across every pool, so a small one
        already compares typo and unrelated verdicts, not only clean."""
        result = run_serve_bench(lookups=200, pool_size=256, warmup=False,
                                 parity=30, engine=engine)
        assert result.parity_checked == 30
        assert result.parity_verdicts.get("typo_risk", 0) > 0
        assert result.parity_verdicts.get("unrelated", 0) > 0


class TestVerdictMemo:
    def test_hits_and_misses_count(self, engine):
        queries = ["gmail.com", "gmial.com", "nope.org"]
        for query in queries:
            engine.lookup(query)
        cold = engine.cache_stats()
        assert cold["misses"] == 3 and cold["size"] == 3
        for query in queries * 2:
            engine.lookup(query)
        warm = engine.cache_stats()
        assert warm["hits"] == cold["hits"] + 6
        assert warm["misses"] == cold["misses"]

    def test_bounded_memo_stays_within_budget(self, index):
        engine = RiskEngine(index, max_cached_verdicts=4)
        for position in range(9):
            engine.lookup(f"query-{position}.org")
        assert engine.cache_stats()["size"] <= 4

    def test_two_generation_eviction_keeps_hot_entries(self, index):
        """Satellite: no 0%-hit-rate cliff at the capacity boundary.

        A hot query re-served every round is promoted out of the aging
        generation, so a flood of one-off queries can rotate the memo
        without ever evicting it — under the old wholesale ``clear()``
        the first rotation dropped it.
        """
        engine = RiskEngine(index, max_cached_verdicts=8)
        hot = engine.lookup("gmial.com")
        for position in range(64):
            engine.lookup(f"flood-{position}.org")
            assert engine.lookup("gmial.com") is hot

    def test_two_generation_stream_is_byte_identical(self, index,
                                                     sample_queries):
        """Eviction policy is invisible in verdict bytes (purity)."""
        tiny = RiskEngine(index, max_cached_verdicts=4)
        roomy = RiskEngine(index, max_cached_verdicts=1 << 15)
        stream = sample_queries[:60] * 2
        assert [tiny.lookup(q).canonical_json() for q in stream] == \
            [roomy.lookup(q).canonical_json() for q in stream]

    def test_clear_resets_counters_with_the_memo(self, index):
        """Satellite: cache_stats counters share the memo's lifetime."""
        engine = RiskEngine(index)
        for query in ("gmail.com", "gmail.com", "gmial.com"):
            engine.lookup(query)
        assert engine.cache_stats()["hits"] == 1
        engine.clear_verdict_memo()
        assert engine.cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_memoized_verdict_is_the_same_object(self, engine):
        first = engine.lookup("gmial.com")
        assert engine.lookup("gmial.com") is first


class TestBatchLookup:
    def test_serial_batch_equals_lookups(self, engine, sample_queries):
        queries = sample_queries[:80]
        batch = engine.batch_lookup(queries)
        assert [v.canonical_json() for v in batch] == \
            [engine.lookup(q).canonical_json() for q in queries]

    def test_parallel_batch_equals_serial(self, index, sample_queries):
        queries = sample_queries[:60]
        serial = RiskEngine(index).batch_lookup(queries)
        fanned = RiskEngine(index).batch_lookup(queries, jobs=2)
        assert [v.canonical_json() for v in fanned] == \
            [v.canonical_json() for v in serial]

    def test_parallel_batch_warms_the_memo(self, index, sample_queries):
        engine = RiskEngine(index)
        queries = sample_queries[:40]
        engine.batch_lookup(queries, jobs=2)
        before = engine.cache_stats()
        engine.lookup(queries[0])
        after = engine.cache_stats()
        assert after["hits"] == before["hits"] + 1

    def test_parallel_batch_review_queue_equals_serial(self, index,
                                                       sample_queries):
        """Satellite: the human queue, not just the verdict stream.

        The fan-out folds worker verdicts through the resident memo in
        stream order, so review-band verdicts must enqueue exactly as
        the serial path would — same members, same order, including
        repeat suppression for memo hits.
        """
        policy = RiskPolicy(critical=0.99, high=0.98, medium=0.97,
                            review=0.01)
        # slice into the gtypo pool range (the first pool is all-clean
        # exact targets, which never hit the review band) + repeats
        queries = (sample_queries[150:210] + sample_queries[150:180])
        serial = RiskEngine(index, policy=policy)
        serial.batch_lookup(queries)
        fanned = RiskEngine(index, policy=policy)
        fanned.batch_lookup(queries, jobs=2)
        assert [v.canonical_json() for v in fanned.review_queue] == \
            [v.canonical_json() for v in serial.review_queue]
        assert len(serial.review_queue) > 0


    def test_parallel_batch_state_equals_serial(self, index,
                                                sample_queries):
        """The fan-out's fold counts memo hits and misses like lookups.

        Verdicts, ``cache_stats()`` and the review queue after a
        ``jobs=2`` batch all equal the ``jobs=1`` run over a stream with
        repeats (hits), rules/exact verdicts and review-band verdicts.
        """
        policy = RiskPolicy(critical=0.99, high=0.98, medium=0.97,
                            review=0.01)
        queries = (["gmail.com", "not a domain"] + sample_queries[150:160]
                   + ["gmail.com"] + sample_queries[150:158])
        runs = []
        for jobs in (1, 2):
            engine = RiskEngine(index, policy=policy)
            verdicts = engine.batch_lookup(queries, jobs=jobs)
            runs.append(([v.canonical_json() for v in verdicts],
                         engine.cache_stats(),
                         [v.canonical_json() for v in engine.review_queue]))
        assert runs[1] == runs[0]
        assert runs[0][1]["hits"] == 9
        assert runs[0][1]["misses"] == len(queries) - 9
        assert runs[0][2]


class TestPersistence:
    def test_round_trip_preserves_every_verdict(self, tmp_path, engine,
                                                sample_queries):
        path = tmp_path / "risk.index"
        engine.index.save(path)
        loaded = RiskEngine(TypoRiskIndex.load(path))
        for query in sample_queries[:80]:
            assert loaded.lookup(query).canonical_json() == \
                engine.lookup(query).canonical_json()

    def test_truncated_artifact_is_corrupt(self, tmp_path, index):
        path = tmp_path / "risk.index"
        index.save(path)
        path.write_text(path.read_text()[:120], encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            TypoRiskIndex.load(path)

    def test_tampered_payload_is_corrupt(self, tmp_path, index):
        path = tmp_path / "risk.index"
        index.save(path)
        data = json.loads(path.read_text())
        data["max_rank"] = MAX_RANK + 1
        path.write_text(json.dumps(data, sort_keys=True))
        with pytest.raises(CheckpointCorruptError):
            TypoRiskIndex.load(path)

    def test_recomputed_digest_cannot_forge_buckets(self, tmp_path, index):
        """Re-digesting after an edit still fails: buckets re-derive."""
        from repro.service.index import _payload_digest

        path = tmp_path / "risk.index"
        index.save(path)
        data = json.loads(path.read_text())
        del data["digest"]
        first_suffix = sorted(data["head_buckets"])[0]
        first_variant = sorted(data["head_buckets"][first_suffix])[0]
        data["head_buckets"][first_suffix][first_variant] = [MAX_RANK]
        data["digest"] = _payload_digest(data)
        path.write_text(json.dumps(data, sort_keys=True))
        with pytest.raises(CheckpointCorruptError):
            TypoRiskIndex.load(path)

    def test_wrong_format_is_a_mismatch(self, tmp_path):
        path = tmp_path / "risk.index"
        path.write_text(json.dumps({"format": "not-an-index@9"}))
        with pytest.raises(CheckpointMismatchError):
            TypoRiskIndex.load(path)


class TestPolicyValidation:
    def test_thresholds_must_descend(self):
        with pytest.raises(ValueError):
            RiskPolicy(critical=0.5, high=0.6, medium=0.3, review=0.1)

    def test_thresholds_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            RiskPolicy(critical=1.5, high=0.6, medium=0.3, review=0.1)

    def test_index_rejects_nonpositive_rank(self):
        with pytest.raises(ConfigError):
            TypoRiskIndex(SEED, -3)
