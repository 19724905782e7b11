"""Resident typo-risk query service.

A mail server (or registrar frontend) asks "how risky is this domain?"
millions of times a day; re-scanning the whole target list per query is
O(ranks) and unshippable.  This package keeps the answer resident:

- :class:`TypoRiskIndex` — precomputed candidate retrieval (deletion
  neighbourhoods for head targets, reverse-edit probes against the
  lazy filler law) that finds every DL<=1 target in O(1)-ish probes,
  pinned byte-identical to the brute-force all-targets scan.
- :class:`RiskEngine` — layered lookup (rules -> exact target ->
  index retrieval -> kernel scoring -> policy tiers) with a bounded
  verdict memo and a review queue for the uncertain band.
- :class:`LookupWorkload` — seeded Zipf-ish mixed traffic for the
  serving benchmark, :func:`run_serve_bench`.
"""

from repro.service.bench import (
    ChaosBenchResult,
    ParityError,
    ServeBenchResult,
    run_serve_bench,
    run_serve_chaos_bench,
)
from repro.service.engine import (
    AdmissionController,
    AdmissionPolicy,
    RiskEngine,
    RiskVerdict,
)
from repro.service.health import (
    HEALTH_STATES,
    ChaosShardTask,
    HealthMonitor,
    HealthPolicy,
    ResilientServer,
    run_chaos_shard,
    verdict_stream_digest,
)
from repro.service.index import (
    RISK_INDEX_FORMAT,
    TypoRiskIndex,
    normalize_query,
)
from repro.service.workload import LookupWorkload, WorkloadMix

__all__ = [
    "TypoRiskIndex",
    "RISK_INDEX_FORMAT",
    "normalize_query",
    "RiskEngine",
    "RiskVerdict",
    "LookupWorkload",
    "WorkloadMix",
    "ServeBenchResult",
    "ParityError",
    "run_serve_bench",
    "AdmissionPolicy",
    "AdmissionController",
    "HEALTH_STATES",
    "HealthPolicy",
    "HealthMonitor",
    "ResilientServer",
    "ChaosShardTask",
    "run_chaos_shard",
    "verdict_stream_digest",
    "ChaosBenchResult",
    "run_serve_chaos_bench",
]
