"""One verdict digest across every way of serving the same world.

The serve family's equivalence contract, stated once: over a sample of
every lookup pool (clean, generated typo, registered typo, junk) plus
the pathological edge queries, the indexed ``lookup``, the brute-force
``lookup_bruteforce``, an index moved to churn day ``DAY`` by
``apply_delta``, a fresh index built at that day, and the generation
``hot_swap`` publishes (``evolved_generation``), ``batch_lookup`` in
process and fanned out over worker processes, and a ``ResilientServer``
under the empty fault plan all give the same verdict digest as the
indexed lookup of a fresh index of that day.
"""

import hashlib

import pytest

from repro.ecosystem.delta import ChurnSchedule
from repro.faultsim.plan import FaultPlan
from repro.service import (
    LookupWorkload,
    ResilientServer,
    RiskEngine,
    TypoRiskIndex,
)
from repro.service.workload import _EDGE_QUERIES

pytestmark = pytest.mark.chaos

SEED, MAX_RANK, DAY, POOL = 606, 1500, 30, 160
SCHEDULE = ChurnSchedule(seed=SEED, max_rank=MAX_RANK, daily_rate=0.02)

#: the verdict digest of the sample at day 0 and at churn day DAY
DIGEST = "499f2db30cb34a6c6cebe40c6477496f1c3cbb7923c55bd8f071280938a09de5"
DIGEST_DAY = (
    "728ae7c0f16534e333b449c0da2a3683bf09de7ab451e062b2c864219ed295f9")


def _sample(index):
    """Every 6th distinct pool query of the index's world, in pool order."""
    workload = LookupWorkload(SEED, MAX_RANK, pool_size=POOL,
                              world=index.world)
    return workload.pool_entries()[::6]


@pytest.fixture(scope="module")
def queries():
    """The day-0 and day-DAY samples (so ctypos that churn registers
    are asked too) and the edge queries, deduplicated in order."""
    day0 = _sample(TypoRiskIndex(SEED, MAX_RANK))
    churned = _sample(_fresh(DAY))
    return list(dict.fromkeys(day0 + churned + list(_EDGE_QUERIES)))


def _fresh(day):
    return TypoRiskIndex(SEED, MAX_RANK, churn=SCHEDULE.generations(day),
                         day=day)


def _stream_digest(verdicts):
    digest = hashlib.sha256()
    for verdict in verdicts:
        digest.update(verdict.canonical_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _digest(answer, queries):
    return _stream_digest(answer(query) for query in queries)


def test_sample_spans_every_verdict(queries):
    verdicts = {RiskEngine(_fresh(0)).lookup(query).verdict
                for query in queries}
    assert {"clean", "typo_risk", "unrelated", "invalid"} <= verdicts


def test_day_zero_modes(queries):
    engine = RiskEngine(_fresh(0))
    assert _digest(engine.lookup, queries) == DIGEST
    assert _digest(engine.lookup_bruteforce, queries) == DIGEST


def test_churn_day_modes(queries):
    fresh = RiskEngine(_fresh(DAY))
    assert _digest(fresh.lookup, queries) == DIGEST_DAY
    assert _digest(fresh.lookup_bruteforce, queries) == DIGEST_DAY

    delta = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
    _digest(delta.lookup, queries)          # warm the day-0 memo first
    assert delta.apply_delta(SCHEDULE, DAY) > 0
    assert _digest(delta.lookup, queries) == DIGEST_DAY

    swapped = RiskEngine(TypoRiskIndex(SEED, MAX_RANK))
    _digest(swapped.lookup, queries)
    assert swapped.hot_swap(SCHEDULE, DAY) > 0
    assert _digest(swapped.lookup, queries) == DIGEST_DAY
    assert DIGEST_DAY != DIGEST


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_modes(queries, jobs):
    for day, expected in ((0, DIGEST), (DAY, DIGEST_DAY)):
        engine = RiskEngine(_fresh(day))
        assert _stream_digest(
            engine.batch_lookup(queries, jobs=jobs)) == expected


def test_resilient_server_empty_plan(queries):
    for day, expected in ((0, DIGEST), (DAY, DIGEST_DAY)):
        server = ResilientServer(RiskEngine(_fresh(day)), FaultPlan.empty())
        assert _digest(server.lookup, queries) == expected
        assert _stream_digest(
            server.batch_lookup(queries, jobs=2)) == expected
