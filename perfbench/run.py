"""The repository's benchmark: four workloads of the email-typosquatting
pipeline, measured end to end, with a separate traced run for per-layer
attribution.

Run one workload from the root of a checkout (the program is imported
from ``src/``; nothing needs installing)::

    python3 perfbench/run.py --workload study --seed 1 --seconds 12 --trace 0

and the traced run of the same workload and seed::

    python3 perfbench/run.py --workload study --seed 1 --seconds 12 --trace 1

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it describe the run (unit
count, estimator inputs, latency sample counts, timer overhead, host
probe).  Outside a checkout that holds ``src/repro`` the benchmark exits
with status 2 and prints no result.

Workloads
---------
All four run in one process with ``jobs=1`` and ``classify_jobs=None``
(no process pool: fan-out on a 2-core host would measure the scheduler).
The workload seed (``--seed``) seeds the world, the mail streams and the
lookup stream.  Artifacts go to a per-run temp directory under
``perfbench/.out/`` that is removed at the end.

``study``
    ``StudyRunner(ExperimentConfig(seed, spam_scale=1e-4)).run()``, the
    default batch classify.  The paper's headline run: generate, deliver
    and classify each take a quarter to two-fifths of the time, and no
    checkpointing happens, so mail-path and funnel changes show here and
    checkpoint changes must not.
``study_durable``
    The same seed and scale run as a paper-scale user would:
    ``streaming_classify=True``, ``retain_messages=False``, a
    ``RecordDigestSink`` and a checkpoint every 21 days (about half the
    unit is saving).  The study's write path, and the only workload on
    the streaming classify loop.
``sweep``
    A fresh ``WorldModel(seed)``, then for each of 8 windows of 500 ranks
    strided across ranks 1..1M: ``scan_ranks(..., max_rank=1_000_000)``,
    ``featurize_domains(..., world=w)`` and the domain lane's
    ``scores(X)`` over ``sweep.matrices()``.  The paper's DL-1 scan plus
    the learned detector's columnar pass; strided windows keep the
    registration density of the full universe.  Set-up trains the domain
    lane with ``train_lane`` on the first window's rows.
``serve``
    A fresh ``RiskEngine(TypoRiskIndex(seed, 100_000))`` answers a
    ``LookupWorkload`` stream (pool 4096, a typo-heavy mix: clean 0.10,
    gtypo 0.50, ctypo 0.30, junk 0.10) in a closed loop with one client:
    2 simulated days of 2,500 lookups, each day opened by
    ``hot_swap(ChurnSchedule(seed, 100_000), day, artifact_path=...)``,
    which persists a ``repro-risk-index@1`` artifact and flushes the
    verdict memo.  Slow misses (``candidate_ranks``, 0.3-3 ms) are about
    seven in ten lookups, so they set p50, p99 and most of the time;
    memo hits (~13%) and fast clean/junk misses (1-50 us) are the rest.

Every unit does identical work: before it, garbage is collected, every
``util.textcache`` memo and the core kernel caches are cleared, and the
unit builds its own world, engine or runner.  Its deterministic counts
(emails sent, records, text-cache hits and misses, sweep rows, memo hits
and misses, ranks changed, output digests) must equal those of the
set-up's warm-up unit and of earlier runs with the same seed and
sources (kept in ``perfbench/.out/counts``); a mismatch fails the unit.

Output checks (a failed check fails the ops it covers): ``study``'s
``record_stream_digest`` and ``sweep``'s ``ScanAggregates.digest()`` /
``DomainSweep.digest()`` repeat across units (they are counts); after
the timed loop ``study_durable``'s sink digest must equal
``record_multiset_digest`` of a batch study with the same seed and
scale, ``serve`` must answer a registered-typo pool query byte-identically to
``lookup_bruteforce``, and reloading ``serve``'s last saved artifact
must give the published generation's ``canonical_dict``.

Metrics (``--trace 0``)
-----------------------
``setup_s`` (s)
    Time from the top of this script to the first timed unit: program
    imports, the workload's set-up (sweep's lane training, serve's
    lookup stream), and one untimed warm-up unit.  The set-up is
    repeated 3 times in the run and its median used; imports and the
    warm-up happen once.
``ops_per_s`` (1/s)
    Ops per second of one unit; an op is one email sent (``study``,
    ``study_durable``), one rank taken through scan, featurize and score
    (``sweep``), or one lookup answered, swap time included (``serve``).
``peak_rss_mb`` (MB)
    ``ru_maxrss`` of the process at the end of the timed units (before
    the output checks, which run extra work).
``p50_us``, ``p99_us`` (us)
    Request latency, taken per unit and reported as the median over the
    run's units; each request is normalised by the factor of the timed
    segment it ran in.  For ``serve`` a request is one lookup, timed
    with a ``perf_counter`` pair around ``engine.lookup`` (5,000 samples
    per unit, 50 beyond p99; the pair's own cost is printed as
    ``timer.overhead_ns``).  For ``sweep`` a request is one rank window
    (8 per unit, so p99 is the slowest, densest window).  The study
    workloads have one request per unit, the whole study, so their p50
    and p99 are both that unit's latency.

Estimator.  The host this was tuned on (2 cores, no PMU, no visible
steal) runs a fixed pure-Python loop in either ~0.075 s or ~0.16 s, in
stretches that last longer than a minute, so best-of-k within one run
cannot remove the slow mode: over three minutes of back-to-back sweep
units the unit time ranged from 0.86 s to 1.78 s, and CPU time tracked
wall time.  Every timed interval is therefore bracketed by a fixed host
probe (``harness.host_probe``) and reported in host-normalised time,
``measured * 0.020 / probe`` with ``probe`` the mean of the readings
just before and just after it (see ``harness``): times are in
"reference seconds", seconds on a host whose probe reads 0.020 s.
The host also switches speed within a unit, so every unit is cut into
segments of ~0.2 s, each closed by a one-pass probe whose own time is
left out, and a unit's normalised time is the sum of its normalised
segments.  ``sweep`` and ``serve`` split between requests (one rank
window, 250 lookups); a study unit is one ``StudyRunner.run`` call, so
a ``SIGALRM`` interval timer splits it every 0.2 s.
Each run times k identical units, as many as start within
``--seconds`` but at least 3 (so a ``study_durable`` run measures
longer than ``--seconds``; k is printed), and reports
``ops / median(normalised unit time)``; the raw best-of-k, the
segments per unit and the probe readings' quartiles are printed
beside it.  Over ten seeds per workload (101-110) the spread
(IQR / median) of ``ops_per_s`` was 3-6% this way; with one segment
per unit it had been 7-20%, and 12-52% for the raw median unit time.  Process-wide memos are a second
trap: re-running a study in one process with warm ``util.textcache``
tables cut ``classify`` from 1.51 s to 0.48 s, hence the resets above.

Per-layer metrics (``--trace 1``)
---------------------------------
One set-up, then untraced and traced units alternate for ``--seconds``.
Units are not cut into segments here (a probe inside a span would count
as that layer's time).
``<layer>_s`` (s) is the mean self time per traced unit of the spans in
``spans.ENTRY_POINTS``; ``residual_s`` is the unit's wall-clock minus
them; ``trace.overhead`` (ratio) is the traced over the untraced median
unit time, minus 1; ``host.probe_s`` / ``host.probe_min_s`` (s) are the
median and min probe readings.  Counts (``sweep.*``, ``service.*``,
checkpoint saves and bytes), hit ratios with their bases, the study's
span / ``StudyResults.perf`` timer ratios (``trace.*_vs_perf``), the
timer overhead and latency sample counts ride along.  Spans are written
to ``perfbench/.out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_REPS = 3
MIN_UNITS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "study_durable", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One benchmark process: set-up, the unit loop, checks, report."""

    def __init__(self, args, clock, tmpdir: Path, imports, script_s: float):
        from harness import source_digest
        from units import WORKLOADS

        self.args = args
        self.clock = clock
        self.tmpdir = tmpdir
        self.imports = imports          # the program-import interval
        self.script_s = script_s        # this script's start-up, raw
        self.builds = []
        self.warmup = None
        self.factory = WORKLOADS[args.workload]
        self.workload = None
        self.reference = None       # the warm-up unit's counts
        self.reference_ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.count_key = (f"{args.workload}-seed{args.seed}-"
                          f"{source_digest(ROOT, HERE)[:16]}")

    # -- set-up --------------------------------------------------------------

    def setup(self, reps: int) -> None:
        """Build the workload ``reps`` times, then run one warm-up unit
        whose counts every later unit must repeat."""
        self.builds = []
        for _ in range(reps):
            workload = self.factory(self.args.seed, self.tmpdir)
            if hasattr(workload, "split") and not self.args.trace:
                # traced units stay whole: a probe inside a span would
                # count as that layer's time
                workload.split = self.clock.split
            self.builds.append(self.clock.timed(workload.setup)[1])
        self.workload = workload
        workload.prepare()
        outputs, self.warmup = self.clock.timed(workload.run,
                                                self.sample_every())
        outcome = workload.inspect(outputs)
        self.reference = outcome.counts
        self.reference_ops = outcome.ops

    def sample_every(self):
        """The workload's timer period for splitting a unit; None in a
        traced run, as for ``split`` above."""
        if self.args.trace:
            return None
        return getattr(self.workload, "sample_every", None)

    def setup_s(self) -> float:
        """Normalised set-up time: imports + median build + warm-up."""
        return (self.imports.norm + self.script_s * self.imports.factor
                + statistics.median(b.norm for b in self.builds)
                + self.warmup.norm)

    # -- units ---------------------------------------------------------------

    def unit(self, run_fn=None):
        """One prepared, timed, inspected unit; returns its record or
        None when it raised."""
        workload = self.workload
        workload.prepare()
        try:
            outputs, interval = self.clock.timed(run_fn or workload.run,
                                                 self.sample_every())
            outcome = workload.inspect(outputs)
        except Exception as error:  # a unit that raises is a failed unit
            self.failures.append(f"unit raised {error!r}")
            self.attempted += self.reference_ops
            self.failed += self.reference_ops
            return None
        self.attempted += outcome.ops
        if outcome.counts != self.reference:
            self.failures.append(
                f"unit counts {outcome.counts} != warm-up {self.reference}")
            self.failed += outcome.ops
        else:
            self.failed += outcome.counts.get("service.failed_lookups", 0)
        return {"interval": interval, "outcome": outcome}

    def finish_checks(self) -> None:
        from harness import check_counts_across_runs

        mismatch = check_counts_across_runs(OUT / "counts", self.count_key,
                                            self.reference)
        failures = list(self.workload.final_checks())
        if mismatch:
            failures.append(mismatch)
        if failures:
            self.failures.extend(failures)
            # a run-level check covers every unit's output
            self.failed = self.attempted

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def _timed(run: Run, seconds: float):
    units = []
    attempts = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempts < MIN_UNITS:
        attempts += 1
        record = run.unit()
        if record is not None:
            units.append(record)
    return units


def _latency_metrics(units):
    """Median over units of each unit's normalised p50 and p99 request
    latency (us), the sample count and the samples beyond each unit's
    p99.  A request is normalised by the factor of the timed segment it
    ran in; a unit without per-request latencies is one request."""
    import numpy as np

    p50s, p99s = [], []
    samples = beyond = 0
    for u in units:
        interval = u["interval"]
        outcome = u["outcome"]
        lat = np.asarray(outcome.latencies or [interval.raw])
        sizes = outcome.latency_segments or [len(lat)]
        if len(sizes) == len(interval.segments):
            lat = lat * np.repeat([seg.factor for seg in interval.segments],
                                  sizes)
        else:
            lat = lat * interval.factor
        p50, p99 = np.percentile(lat, (50, 99))
        beyond += int(np.count_nonzero(lat > p99))
        samples += len(lat)
        p50s.append(float(p50))
        p99s.append(float(p99))
    return (statistics.median(p50s) * 1e6, statistics.median(p99s) * 1e6,
            samples, beyond)


def measure(run: Run, seconds: float) -> dict:
    from harness import peak_rss_mb, timer_overhead_ns

    run.setup(SETUP_REPS)
    units = _timed(run, seconds)
    rss = peak_rss_mb()
    run.finish_checks()
    if not units:
        raise RuntimeError("no unit completed: " + "; ".join(run.failures))
    ops = units[0]["outcome"].ops
    norms = [u["interval"].norm for u in units]
    raws = [u["interval"].raw for u in units]
    p50, p99, samples, beyond = _latency_metrics(units)
    overhead = timer_overhead_ns()
    probe = run.clock.probe_summary()
    quartiles = statistics.quantiles(run.clock.probes, n=4)
    print(f"# workload={run.args.workload} seed={run.args.seed} "
          f"k={len(units)} ops/unit={ops} "
          f"estimator=ops/median(normalised unit time)")
    print(f"# unit raw s={[round(v, 4) for v in raws]} "
          f"normalised s={[round(v, 4) for v in norms]} "
          f"segments/unit={len(units[0]['interval'].segments)} "
          f"raw best-of-k ops/s={ops / min(raws):.1f} "
          f"probes={len(run.clock.probes)} "
          f"quartiles s={[round(v, 5) for v in quartiles]}")
    print(f"# latency samples={samples} beyond_p99={beyond} "
          f"timer.overhead_ns={overhead:.1f} "
          f"host.probe_s median={probe['median']:.5f} "
          f"min={probe['min']:.5f} "
          f"artifact_bytes/unit={units[0]['outcome'].bytes_written}")
    for failure in run.failures:
        print(f"# FAILED: {failure}")
    return {
        "setup_s": (run.setup_s(), "s"),
        "ops_per_s": (ops / statistics.median(norms), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "p50_us": (p50, "us"),
        "p99_us": (p99, "us"),
    }


def trace(run: Run, seconds: float) -> dict:
    from harness import timer_overhead_ns
    from repro.util.perf import PerfRegistry
    from spans import SPAN_NAMES, Tracer, perf_crosscheck, traced

    run.setup(1)
    tracer = Tracer()
    plain, spanned = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index < 1:
        record = run.unit()
        if record is not None:
            plain.append(record)
        index += 1
        workload = run.workload
        perf = PerfRegistry()
        record = run.unit(traced(
            tracer, lambda: workload.run(perf=perf), index))
        if record is not None:
            totals, calls = tracer.self_times(index)
            record["totals"], record["calls"] = totals, calls
            record["perf"] = perf.snapshot()["timers"]
            spanned.append(record)
    run.finish_checks()
    if not spanned or not plain:
        raise RuntimeError("no unit completed: " + "; ".join(run.failures))
    tracer.write(OUT / f"spans-{run.args.workload}-seed{run.args.seed}.jsonl")

    n = len(spanned)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = (sum(
            u["totals"][name] * u["interval"].factor for u in spanned) / n,
            "s")
    residual = sum((u["interval"].raw - sum(u["totals"].values()))
                   * u["interval"].factor for u in spanned) / n
    metrics["residual_s"] = (residual, "s")
    metrics["unit_s"] = (sum(u["interval"].norm for u in spanned) / n, "s")
    metrics["trace.overhead"] = (
        statistics.median(u["interval"].norm for u in spanned)
        / statistics.median(u["interval"].norm for u in plain) - 1.0,
        "ratio")

    def perf_mean(timer):
        return sum(u["perf"].get(timer, {}).get("seconds", 0.0)
                   * u["interval"].factor for u in spanned) / n

    metrics["scan.draw_s"] = (perf_mean("scan.draw_seconds"), "s")
    metrics["scan.probe_s"] = (perf_mean("scan.probe_seconds"), "s")
    metrics["featurize.walk_s"] = (perf_mean("featurize.walk_seconds"), "s")

    first = spanned[0]
    counts = first["outcome"].counts
    calls = first["calls"]
    metrics.update(_layer_counts(counts, calls, tracer, n))
    cross = perf_crosscheck(first["totals"],
                            first["outcome"].extra.get("perf_timers"))
    for key in ("generate", "tokenize", "score", "checkpoint"):
        metrics[f"trace.{key}_vs_perf"] = (cross.get(key, 0.0), "ratio")

    probe = run.clock.probe_summary()
    metrics["host.probe_s"] = (probe["median"], "s")
    metrics["host.probe_min_s"] = (probe["min"], "s")
    metrics["timer.overhead_ns"] = (timer_overhead_ns(), "ns")
    lat = plain[0]["outcome"].latencies
    metrics["latency.samples"] = (len(lat) if lat else 0, "count")
    metrics["units.traced"] = (n, "count")
    metrics["tmp.bytes_per_unit"] = (first["outcome"].bytes_written, "B")
    print(f"# workload={run.args.workload} seed={run.args.seed} "
          f"traced units={n} untraced units={len(plain)} "
          f"spans={len(tracer.spans)}")
    for failure in run.failures:
        print(f"# FAILED: {failure}")
    return metrics


def _ratio(hits, misses) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _layer_counts(counts, calls, tracer, n) -> dict:
    kernel = counts.get("kernel_cache", {"hits": 0, "misses": 0})
    memo_hits = counts.get("service.memo_hits", 0)
    memo_misses = counts.get("service.memo_misses", 0)
    return {
        "util.textcache.hit_ratio": (_ratio(
            counts.get("textcache.hits", 0),
            counts.get("textcache.misses", 0)), "ratio"),
        "util.textcache.lookups": (counts.get("textcache.hits", 0)
                                   + counts.get("textcache.misses", 0),
                                   "count"),
        "emails.sent": (counts.get("emails.sent", 0), "count"),
        "records": (counts.get("records", 0), "count"),
        "experiment.checkpoint.saves": (
            calls["experiment.checkpoint.save"], "count"),
        "experiment.checkpoint.bytes": (tracer.file_bytes.get(
            "experiment.checkpoint.save", 0) / n, "B"),
        "sweep.rows": (counts.get("sweep.rows", 0), "count"),
        "sweep.rows_excluded": (counts.get("sweep.rows_excluded", 0),
                                "count"),
        "sweep.ctypos_registered": (
            counts.get("sweep.ctypos_registered", 0), "count"),
        "sweep.gtypos_generated": (
            counts.get("sweep.gtypos_generated", 0), "count"),
        "service.lookups": (counts.get("service.lookups", 0), "count"),
        "service.retrieval_calls": (calls["service.retrieval"], "count"),
        "service.memo_hit_ratio": (_ratio(memo_hits, memo_misses), "ratio"),
        "service.swaps": (calls["service.swap"], "count"),
        "service.ranks_changed": (counts.get("service.ranks_changed", 0),
                                  "count"),
        "service.index_bytes": (tracer.file_bytes.get(
            "service.index_save", 0) / n, "B"),
        "core.kernel_cache_hit_ratio": (_ratio(kernel["hits"],
                                               kernel["misses"]), "ratio"),
        "core.kernel_cache_lookups": (kernel["hits"] + kernel["misses"],
                                      "count"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import HostClock, result_line

    clock = HostClock()
    script_s = time.perf_counter() - _T0     # this script's own start-up
    _, imports = clock.timed(lambda: importlib.import_module("units"))

    OUT.mkdir(parents=True, exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        run = Run(args, clock, tmpdir, imports, script_s)
        if args.trace:
            metrics = trace(run, args.seconds)
        else:
            metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(result_line(correct=run.correct, attempted=run.attempted,
                      failed=run.failed, metrics=metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
