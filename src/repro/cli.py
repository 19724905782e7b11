"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiments:

* ``study``    — run the seven-month collection simulation (§4)
* ``scan``     — scan the wild ecosystem (§5, Table 4/Figure 8)
* ``honey``    — the honey-probe and honey-token experiments (§7)
* ``project``  — the regression projection (§6)
* ``typos``    — enumerate DL-1 typo candidates of a domain, with features
* ``check``    — the §8 defense: is this address a likely typo?
* ``doctor``   — validate on-disk artifacts (checkpoints, plans, perf baselines)
* ``serve-bench`` — benchmark the resident typo-risk query service
* ``train``    — fit the learned detector (both lanes) from the seed
* ``evaluate`` — Table-3-style learned vs. funnel comparison

Failures surface through the :mod:`repro.util.errors` taxonomy: exit 2
for bad input files, exit 3 for corrupt/mismatched checkpoints, exit 4
for degraded runs — one-line messages, never tracebacks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Email Typosquatting' (IMC 2017)")
    parser.add_argument("--seed", type=int, default=2016,
                        help="root RNG seed (default: 2016)")
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser("study", help="run the collection study")
    study.add_argument("--spam-scale", type=float, default=1e-4,
                       help="spam subsampling scale (default: 1e-4)")
    study.add_argument("--scale", type=float, default=1.0, metavar="X",
                       help="multiply the spam scale by X (paper-scale "
                            "studies: --scale 10 = 10x the spam volume)")
    study.add_argument("--no-outage", action="store_true",
                       help="disable the two-month collection outage")
    study.add_argument("--seeds", type=_seed_list, metavar="A,B,C",
                       help="run one study per seed (comma-separated) "
                            "instead of the single --seed run")
    study.add_argument("--jobs", type=int, metavar="N",
                       help="worker processes: one study per worker on "
                            "the multi-seed path, classify-stage workers "
                            "on the single-seed path (the record stream "
                            "is identical at any N)")
    study.add_argument("--streaming", action="store_true",
                       help="classify day-by-day inside the window loop "
                            "instead of batching at the end (same records)")
    study.add_argument("--bounded-memory", action="store_true",
                       help="with --streaming: release each delivered "
                            "message once its record is emitted and hand "
                            "records to a digest sink (prints counts + "
                            "multiset digest; skips the volume report)")
    study.add_argument("--detector", default="funnel",
                       choices=("funnel", "learned", "both"),
                       help="spam arm of the batch classification: the "
                            "rule funnel (default), the trained model, "
                            "or the union of the two")
    study.add_argument("--model", metavar="PATH",
                       help="repro-typo-model@1 artifact for "
                            "--detector learned/both (see `repro train`)")
    study.add_argument("--report", metavar="PATH",
                       help="write a Markdown report to PATH")
    study.add_argument("--export", metavar="DIR",
                       help="export per-figure CSV data into DIR")
    study.add_argument("--fault-plan", metavar="PATH",
                       help="inject the deterministic fault schedule from "
                            "this JSON file (see repro.faultsim)")
    study.add_argument("--chaos", action="store_true",
                       help="inject the built-in demo fault plan "
                            "(outages, DNS SERVFAIL spells, SMTP tempfail "
                            "+ greylisting), seeded from --seed")
    study.add_argument("--checkpoint", metavar="PATH",
                       help="persist full study state to PATH at day "
                            "boundaries; if PATH exists the run resumes "
                            "from it (kill-safe: the resumed record "
                            "stream is byte-identical)")
    study.add_argument("--resume", metavar="PATH",
                       help="like --checkpoint but PATH must already "
                            "hold a valid checkpoint (exit 3 otherwise)")
    study.add_argument("--checkpoint-interval", type=int, default=1,
                       metavar="DAYS",
                       help="write the checkpoint every DAYS simulated "
                            "days (default: 1)")
    study.add_argument("--scenario", metavar="PATH",
                       help="drive a repro-scenario@1 living-internet "
                            "timeline alongside the study (churn bursts, "
                            "adaptive squatter campaigns, defensive "
                            "registrations; retrain events run the drift "
                            "lifecycle under --detector learned/both)")
    study.add_argument("--model-dir", metavar="DIR",
                       help="directory for the drift lifecycle's "
                            "active/candidate/previous model artifacts "
                            "(default: <checkpoint>.models)")

    scan = commands.add_parser("scan", help="scan the wild ecosystem")
    scan.add_argument("--targets", type=int, default=40,
                      help="number of filler target domains (default: 40)")
    scan.add_argument("--ranks", type=int, metavar="N",
                      help="paper-scale streaming scan over the top-N "
                           "target ranks of the lazy world model (never "
                           "materializes the Internet)")
    scan.add_argument("--jobs", type=int, metavar="J",
                      help="worker processes for the --ranks scan "
                           "(1 = serial; the digest is identical)")
    scan.add_argument("--fault-plan", metavar="PATH",
                      help="inject worker crash/hang faults from this "
                           "JSON fault plan (--ranks scans only)")
    scan.add_argument("--chaos", action="store_true",
                      help="inject the built-in demo fault plan, seeded "
                           "from --seed (--ranks scans only)")
    scan.add_argument("--checkpoint", metavar="PATH",
                      help="persist completed rank ranges to PATH and "
                           "reuse them on re-runs, at any --jobs; a "
                           "re-run at a later --days rescans only the "
                           "ranges churn touched (--ranks scans only)")
    scan.add_argument("--days", type=int, default=0, metavar="D",
                      help="evolve the world by D days of registration/"
                           "expiration churn before scanning "
                           "(--ranks scans only; default: 0)")
    scan.add_argument("--churn-rate", type=float, default=0.004,
                      metavar="RATE",
                      help="fraction of ranks that churn per day "
                           "(default: 0.004)")
    scan.add_argument("--range-width", type=int, default=1024,
                      metavar="W",
                      help="ranks per scan range: the unit of work, "
                           "retry and checkpoint reuse; "
                           "independent of --jobs (default: 1024)")

    honey = commands.add_parser("honey", help="run the honey experiments")
    honey.add_argument("--targets", type=int, default=40)

    project = commands.add_parser("project", help="run the §6 projection")
    project.add_argument("--targets", type=int, default=40)
    project.add_argument("--spam-scale", type=float, default=1e-4)

    typos = commands.add_parser("typos", help="enumerate typo candidates")
    typos.add_argument("domain", help="target domain, e.g. gmail.com")
    typos.add_argument("--fat-finger-only", action="store_true")
    typos.add_argument("--limit", type=int, default=20)

    check = commands.add_parser("check", help="typo-check an address/domain")
    check.add_argument("value", help="email address or bare domain")

    doctor = commands.add_parser(
        "doctor", help="validate on-disk artifacts (checkpoints, fault "
                       "plans, perf baselines)")
    doctor.add_argument("paths", nargs="+", metavar="FILE",
                        help="artifact files to examine")

    sweep = commands.add_parser(
        "sweep", help="multi-seed robustness sweep over headline numbers")
    sweep.add_argument("--seeds", type=int, nargs="+",
                       default=[1, 2, 3, 4, 5])
    sweep.add_argument("--spam-scale", type=float, default=2e-5)
    sweep.add_argument("--jobs", type=int, metavar="N",
                       help="worker processes (default: serial)")

    serve = commands.add_parser(
        "serve-bench",
        help="benchmark the resident typo-risk query service")
    serve.add_argument("--ranks", type=int, default=100_000, metavar="N",
                       help="world size: most-popular N domains are "
                            "targets (default: 100000)")
    serve.add_argument("--lookups", type=int, default=1_000_000,
                       metavar="N",
                       help="queries to serve and time (default: 1000000)")
    serve.add_argument("--pool-size", type=int, default=4096, metavar="N",
                       help="distinct queries per workload category "
                            "(default: 4096)")
    serve.add_argument("--no-warmup", action="store_true",
                       help="skip the warmup pass: measure the cold "
                            "memo instead of the warm steady state")
    serve.add_argument("--parity", type=int, default=0, metavar="N",
                       help="verify N distinct queries byte-identical "
                            "against the brute-force all-targets scan "
                            "(slow; default: 0)")
    serve.add_argument("--save-index", metavar="PATH",
                       help="persist the built index as a "
                            "repro-risk-index@1 artifact")
    serve.add_argument("--load-index", metavar="PATH",
                       help="serve from a persisted index artifact "
                            "instead of building one (overrides --ranks)")
    serve.add_argument("--bench-out", metavar="PATH",
                       help="record the run into this BENCH_perf.json's "
                            "query_service (or service_chaos) section")
    serve.add_argument("--chaos", action="store_true",
                       help="serve through the resilient layer under the "
                            "built-in service fault plan: stalls, index "
                            "errors, memory pressure, a mid-traffic churn "
                            "hot-swap")
    serve.add_argument("--fault-plan", metavar="PATH",
                       help="serve under the service spells of this fault "
                            "plan JSON (implies the resilient layer)")
    serve.add_argument("--score-mode", default="rules",
                       choices=("rules", "learned"),
                       help="layer-4 scorer: the kernel rules (default) "
                            "or the trained domain-lane model")
    serve.add_argument("--model", metavar="PATH",
                       help="repro-typo-model@1 artifact for "
                            "--score-mode learned")

    train = commands.add_parser(
        "train", help="train the learned typo detector (both lanes)")
    train.add_argument("--out", required=True, metavar="PATH",
                       help="write the repro-typo-model@1 artifact here")
    train.add_argument("--ranks", type=int, default=20_000, metavar="N",
                       help="domain-lane training sweep: most-popular N "
                            "targets (default: 20000)")
    train.add_argument("--dataset-size", type=int, default=1_500,
                       metavar="N",
                       help="messages per training corpus "
                            "(default: 1500)")
    train.add_argument("--jobs", type=int, metavar="J",
                       help="featurization worker processes (the model "
                            "is byte-identical at any J)")

    evaluate = commands.add_parser(
        "evaluate", help="Table-3-style learned vs. funnel comparison")
    evaluate.add_argument("--model", required=True, metavar="PATH",
                          help="repro-typo-model@1 artifact to evaluate")
    evaluate.add_argument("--dataset-size", type=int, default=2_000,
                          metavar="N",
                          help="messages per evaluation corpus "
                               "(default: 2000)")

    return parser


def _load_fault_plan(args: argparse.Namespace):
    """Resolve --fault-plan/--chaos into an Optional[FaultPlan].

    A missing, unparseable, or invalid plan file is a
    :class:`~repro.util.errors.PlanFileError` (exit 2, one-line
    message) — never a traceback.
    """
    from pathlib import Path

    from repro.faultsim import FaultPlan
    from repro.util.errors import PlanFileError

    if getattr(args, "fault_plan", None):
        path = Path(args.fault_plan)
        try:
            text = path.read_text()
        except OSError as error:
            raise PlanFileError(
                f"cannot read fault plan {path}: {error}") from error
        try:
            return FaultPlan.from_json(text)
        except (ValueError, TypeError, KeyError) as error:
            raise PlanFileError(
                f"invalid fault plan {path}: {error}") from error
    if getattr(args, "chaos", False):
        return FaultPlan.chaos_demo(args.seed)
    return None


def _seed_list(text: str) -> List[int]:
    """argparse type for ``--seeds 1,2,3``."""
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("expected at least one seed")
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    from repro.util.errors import ReproError

    args = build_parser().parse_args(argv)
    handler = {
        "study": _cmd_study,
        "scan": _cmd_scan,
        "honey": _cmd_honey,
        "project": _cmd_project,
        "typos": _cmd_typos,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
        "doctor": _cmd_doctor,
        "serve-bench": _cmd_serve_bench,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
    }[args.command]
    try:
        return handler(args)
    except KeyboardInterrupt:
        # Ctrl-C is an operator's choice, not a crash: one line, the
        # shell's SIGINT status, and the way back in when there is one
        hint = ""
        if args.command == "study" and (args.resume or args.checkpoint):
            checkpoint = args.resume or args.checkpoint
            hint = (f"; the checkpoint journal {checkpoint} is intact, "
                    f"re-run with --resume {checkpoint} to continue")
        elif args.command == "scan" and args.checkpoint:
            hint = (f"; the checkpoint {args.checkpoint} keeps every "
                    f"finished rank range, re-run the same command to "
                    f"continue")
        print(f"interrupted{hint}", file=sys.stderr)
        return 130
    except ReproError as error:
        # the taxonomy's contract: one line on stderr, a meaningful
        # exit code, no traceback; anything else still fails loud
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    except Exception as error:  # noqa: BLE001 — only the crash marker
        from repro.faultsim.plan import InjectedStudyCrash

        if isinstance(error, InjectedStudyCrash):
            # the faultsim's simulated kill: the checkpoint was forced
            # out before the raise, so the operator's next move is clear
            print(f"error: {error}; re-run with --resume to continue",
                  file=sys.stderr)
            return 1
        raise


# -- commands -----------------------------------------------------------------


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis.volume import descaled_volume_report
    from repro.experiment import ExperimentConfig, StudyRunner

    plan = _load_fault_plan(args)
    if args.bounded_memory and not args.streaming:
        print("--bounded-memory requires --streaming", file=sys.stderr)
        return 2
    if args.streaming and args.jobs is not None and args.jobs > 1 \
            and not args.seeds:
        print("--streaming classifies each day inline; drop --jobs or "
              "--streaming", file=sys.stderr)
        return 2
    if args.bounded_memory and args.seeds:
        print("--bounded-memory needs a single-seed run", file=sys.stderr)
        return 2
    checkpoint_path = args.resume or args.checkpoint
    if checkpoint_path and args.seeds:
        print("--checkpoint/--resume need a single-seed run",
              file=sys.stderr)
        return 2
    if args.detector != "funnel":
        if args.streaming:
            print("--detector learned/both runs in the batch classifier; "
                  "drop --streaming", file=sys.stderr)
            return 2
        if not args.model:
            print(f"--detector {args.detector} requires --model PATH "
                  "(train one with `repro train`)", file=sys.stderr)
            return 2
    scenario = None
    if args.scenario:
        from repro.scenario.timeline import Scenario

        # Scenario.load speaks the error taxonomy: a torn file exits 3,
        # an unknown event kind exits 2 — both through the main handler
        scenario = Scenario.load(args.scenario)
        if args.seeds:
            print("--scenario needs a single-seed run", file=sys.stderr)
            return 2
        if any(event.retrain for event in scenario.events) \
                and args.detector == "funnel":
            print("this scenario schedules retrain events; run it with "
                  "--detector learned/both and --model PATH",
                  file=sys.stderr)
            return 2
    config = ExperimentConfig(
        seed=args.seed,
        spam_scale=args.spam_scale * args.scale,
        outage_spans=() if args.no_outage else ((75, 135),),
        fault_plan=plan,
        classify_jobs=args.jobs if not args.seeds else None,
        streaming_classify=args.streaming,
        retain_messages=not args.bounded_memory,
        detector=args.detector,
        model_path=args.model,
        scenario=scenario,
        model_dir=args.model_dir,
    )
    if args.seeds:
        return _cmd_study_multi(args, config)
    if plan is not None:
        print(f"fault plan active (digest sha256:{plan.digest()})",
              file=sys.stderr)
    if args.bounded_memory:
        return _cmd_study_bounded(args, config)
    print("running the collection study...", file=sys.stderr)
    results = StudyRunner(config).run(
        checkpoint_path=checkpoint_path,
        resume=bool(args.resume),
        checkpoint_interval=args.checkpoint_interval)
    smtp_domains = [d.domain for d in results.corpus.by_purpose("smtp")]
    report = descaled_volume_report(results.records, results.window,
                                    config.ham_scale, config.spam_scale,
                                    smtp_domains)
    correct, total = results.funnel_accuracy()
    print(f"collected {results.delivered_count} emails over "
          f"{results.window.effective_days} effective days")
    print(f"funnel/ground-truth agreement: {correct / total:.1%}")
    print(f"yearly total (descaled):      {report.total_received:,.0f}")
    print(f"yearly genuine typo emails:   {report.passed_all_filters:,.0f}")
    low, high = report.smtp_typo_range()
    print(f"yearly SMTP-typo band:        {low:,.0f} - {high:,.0f}")
    robustness = results.robustness
    if robustness is not None:
        if "faults" in robustness:
            faults = sum(robustness.get("faults", {}).values())
            retry = robustness.get("retry", {})
            coverage = robustness.get("collector", {})
            print(f"faults injected: {faults}; retry queue recovered "
                  f"{retry.get('recovered', 0)}/{retry.get('enqueued', 0)} "
                  f"(gave up {retry.get('gave_up', 0)}); collector down "
                  f"{len(coverage.get('gap_days', []))} days")
        durability = robustness.get("durability")
        if durability is not None:
            resumed = durability.get("resumed_from_day")
            print(f"durable run: {durability.get('checkpoints_written')} "
                  f"checkpoints written"
                  + (f", resumed from day {resumed}"
                     if resumed is not None else ""))
        timeline = robustness.get("scenario")
        if timeline is not None:
            line = (f"scenario {timeline.get('name')!r}: "
                    f"{timeline.get('days')} days, timeline digest "
                    f"{str(timeline.get('timeline_digest'))[:12]}")
            lifecycle = timeline.get("lifecycle")
            if lifecycle:
                actions = [entry["decision"]["action"]
                           for entry in lifecycle.get("events", [])]
                line += (f"; lifecycle: {', '.join(actions) or 'idle'}, "
                         f"active model "
                         f"{str(lifecycle.get('active_digest'))[:12]}")
            print(line)

    if args.report:
        from pathlib import Path

        from repro.report import render_study_report

        Path(args.report).write_text(render_study_report(results))
        print(f"report written to {args.report}")
    if args.export:
        from repro.report import export_figure_data

        written = export_figure_data(results, args.export)
        print(f"exported {len(written)} files to {args.export}")
    return 0


def _cmd_study_bounded(args: argparse.Namespace, config) -> int:
    """``study --streaming --bounded-memory``: records flow to a sink.

    Nothing accumulates — delivered messages are released as their
    records are emitted, and the sink keeps only counts plus an
    order-independent multiset digest, so the run is comparable against
    a batch run's ``record_multiset_digest`` without retaining either
    record stream.
    """
    from repro.experiment import RecordDigestSink, StudyRunner

    if args.report or args.export:
        print("--report/--export need a retaining run (drop "
              "--bounded-memory)", file=sys.stderr)
        return 2
    print("running the collection study (bounded memory)...",
          file=sys.stderr)
    sink = RecordDigestSink()
    results = StudyRunner(config).run(
        record_sink=sink,
        checkpoint_path=args.resume or args.checkpoint,
        resume=bool(args.resume),
        checkpoint_interval=args.checkpoint_interval)
    print(f"collected {results.delivered_count} emails over "
          f"{results.window.effective_days} effective days")
    print(f"records emitted:        {sink.count}")
    print(f"true typo records:      {sink.true_typo_count}")
    print(f"record multiset digest: {sink.digest()}")
    return 0


def _cmd_study_multi(args: argparse.Namespace, base_config) -> int:
    """``study --seeds a,b,c [--jobs N]``: one study per seed."""
    from dataclasses import replace

    from repro.analysis.volume import descaled_volume_report
    from repro.experiment import run_study_samples

    if args.report or args.export:
        print("--report/--export need a single-seed run", file=sys.stderr)
        return 2
    seeds = args.seeds
    jobs = args.jobs
    print(f"running the collection study under {len(seeds)} seeds"
          f"{f' ({jobs} workers)' if jobs and jobs > 1 else ''}...",
          file=sys.stderr)
    configs = [replace(base_config, seed=seed) for seed in seeds]
    samples = run_study_samples(configs, jobs=jobs)
    print(f"{'seed':>12s} {'delivered':>10s} {'funnel':>7s} "
          f"{'yearly typos':>13s} {'smtp band':>21s}")
    for config, sample in zip(configs, samples):
        smtp_domains = [d.domain for d in sample.corpus.by_purpose("smtp")]
        report = descaled_volume_report(list(sample.records), sample.window,
                                        config.ham_scale, config.spam_scale,
                                        smtp_domains)
        correct, total = sample.funnel_accuracy()
        low, high = report.smtp_typo_range()
        print(f"{sample.seed:>12d} {sample.delivered_count:>10d} "
              f"{correct / max(1, total):>6.1%} "
              f"{report.passed_all_filters:>13,.0f} "
              f"{f'{low:,.0f} - {high:,.0f}':>21s}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.ecosystem import (
        EcosystemScanner,
        InternetConfig,
        build_internet,
        cluster_registrants,
        concentration_curve,
        smallest_fraction_covering,
        top_share,
    )
    from repro.util import SeededRng

    if args.ranks:
        return _cmd_scan_streaming(args)

    print("building the simulated Internet...", file=sys.stderr)
    internet = build_internet(SeededRng(args.seed, name="world"),
                              InternetConfig(num_filler_targets=args.targets))
    scan = EcosystemScanner(internet).scan()
    print(f"{scan.generated_count} gtypos enumerated; "
          f"{scan.registered_count} registered ctypos")
    for support, percent in scan.support_percentages().items():
        print(f"  {support.value:25s} {percent:5.1f}%")
    clusters = cluster_registrants(
        internet.whois, [w.domain for w in internet.squatting_domains()])
    curve = concentration_curve([len(c) for c in clusters])
    print(f"top-14 registrants own {top_share(curve, 14):.1%}; "
          f"{smallest_fraction_covering(curve, 0.5):.1%} of registrants "
          "own the majority")
    return 0


def _print_scan_perf(perf) -> None:
    """Satellite perf report: per-phase scan timers, when collected."""
    names = ("scan.setup_seconds", "scan.draw_seconds",
             "scan.probe_seconds", "scan.merge_seconds")
    shown = [(name, perf.timers[name]) for name in names
             if name in perf.timers]
    if not shown:
        return
    print("per-phase wall clock:", file=sys.stderr)
    for name, stat in shown:
        print(f"  {name:28s} {stat.seconds:9.3f}s "
              f"({stat.calls} call{'s' if stat.calls != 1 else ''})",
              file=sys.stderr)


def _cmd_scan_streaming(args: argparse.Namespace) -> int:
    """``repro scan --ranks N [--jobs J]``: the paper-scale lazy scan."""
    from repro.ecosystem import ChurnSchedule
    from repro.experiment import run_resilient_scan
    from repro.util.perf import PerfRegistry

    jobs = args.jobs or 1
    plan = _load_fault_plan(args)
    perf = PerfRegistry()
    print(f"streaming scan of ranks 1..{args.ranks} "
          f"({jobs} job{'s' if jobs != 1 else ''})...", file=sys.stderr)
    churn = ()
    if args.days:
        churn = tuple(sorted(ChurnSchedule(
            args.seed, args.ranks, args.churn_rate).generations(
                args.days).items()))
    result = run_resilient_scan(args.seed, args.ranks, jobs=args.jobs,
                                fault_plan=plan,
                                checkpoint_path=args.checkpoint,
                                churn=churn,
                                range_width=args.range_width, perf=perf)
    aggregates = result.aggregates
    if plan is not None or args.checkpoint:
        for line in result.summary_lines():
            print(line, file=sys.stderr)
    print(f"{aggregates.generated_count} gtypos enumerated; "
          f"{aggregates.registered_count} registered ctypos")
    print("Table 4 — observed SMTP support:")
    for support, percent in aggregates.support_percentages().items():
        print(f"  {support.value:25s} {percent:5.1f}%")
    mx_total = sum(aggregates.mx_domain_counts.values())
    if mx_total:
        print("Table 6 — MX concentration (top 8 operator domains):")
        for host, count in aggregates.mx_domain_counts.most_common(8):
            print(f"  {host:25s} {count:8d}  {100.0 * count / mx_total:5.1f}%")
    print(f"aggregate digest: sha256:{aggregates.digest()}")
    _print_scan_perf(perf)
    result.raise_if_degraded()
    return 0


def _cmd_honey(args: argparse.Namespace) -> int:
    from repro.ecosystem import EcosystemScanner, InternetConfig, build_internet
    from repro.honey import HoneyCampaign
    from repro.util import SeededRng

    rng = SeededRng(args.seed, name="honey-cli")
    internet = build_internet(rng.child("world"),
                              InternetConfig(num_filler_targets=args.targets))
    scan = EcosystemScanner(internet).scan()
    campaign = HoneyCampaign(internet, rng.child("campaign"))
    probe = campaign.run_probe_campaign(
        campaign.probe_targets_from_scan(scan))
    print(f"probed {probe.domains_probed} domains; "
          f"{len(probe.accepting_domains)} accepted")
    full = campaign.run_token_campaign(probe.accepting_domains)
    print(f"honey tokens: {full.emails_sent} sent, "
          f"{full.emails_accepted} accepted, {full.emails_opened} opened")
    print(f"domains with reads: {len(full.domains_read)}; "
          f"with bait access: {len(full.domains_acted)}")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from repro.ecosystem import InternetConfig, build_internet
    from repro.experiment import ExperimentConfig, StudyRunner
    from repro.extrapolate import ProjectionExperiment, RegressionObservation
    from repro.extrapolate.projection import PROJECTION_TARGETS
    from repro.util import SeededRng

    print("running the study for seed measurements...", file=sys.stderr)
    config = ExperimentConfig(seed=args.seed, spam_scale=args.spam_scale)
    results = StudyRunner(config).run()
    volumes = results.per_domain_yearly_true_typos()

    internet = build_internet(SeededRng(args.seed, name="world"),
                              InternetConfig(num_filler_targets=args.targets))
    observations = []
    for domain in results.corpus.by_purpose("receiver"):
        if domain.target not in PROJECTION_TARGETS or domain.candidate is None:
            continue
        rank = internet.alexa_rank(domain.target)
        if rank is None:
            continue
        observations.append(RegressionObservation(
            domain=domain.domain, target=domain.target,
            yearly_emails=volumes.get(domain.domain, 0.0),
            alexa_rank=rank,
            normalized_visual=domain.candidate.normalized_visual,
            fat_finger=domain.candidate.is_fat_finger))

    experiment = ProjectionExperiment(internet,
                                      SeededRng(args.seed, name="proj"))
    report = experiment.run(observations,
                            exclude_domains=results.corpus.domain_names())
    for line in report.summary_lines():
        print(line)
    return 0


def _cmd_typos(args: argparse.Namespace) -> int:
    from repro.core import TypoGenerator

    generator = TypoGenerator(fat_finger_only=args.fat_finger_only)
    candidates = generator.generate(args.domain)
    candidates.sort(key=lambda c: c.visual)
    print(f"{len(candidates)} DL-1 candidates of {args.domain} "
          f"(showing {min(args.limit, len(candidates))}, most "
          "visually-confusable first)")
    print(f"{'domain':24s} {'edit':14s} {'ff':>3s} {'visual':>7s}")
    for candidate in candidates[:args.limit]:
        print(f"{candidate.domain:24s} {candidate.edit_type:14s} "
              f"{'y' if candidate.is_fat_finger else 'n':>3s} "
              f"{candidate.visual:7.2f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.defenses import TypoCorrector

    corrector = TypoCorrector()
    if "@" in args.value:
        suggestion = corrector.check_address(args.value)
    else:
        suggestion = corrector.check_domain(args.value)
    if suggestion is None:
        print(f"{args.value}: looks fine")
        return 0
    print(f"{args.value}: likely typo "
          f"(confidence {suggestion.confidence:.0%})")
    print(f"  {suggestion.render()}")
    return 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    """``repro doctor FILE...``: validate artifacts, worst finding wins."""
    from repro.doctor import diagnose_paths, exit_code_for

    diagnoses = diagnose_paths(args.paths)
    for diagnosis in diagnoses:
        print(diagnosis.summary_line())
        for problem in diagnosis.problems[1:]:
            print(f"       - {problem}")
    bad = [d for d in diagnoses if not d.ok]
    if bad:
        print(f"{len(bad)} of {len(diagnoses)} artifacts failed "
              f"validation", file=sys.stderr)
    return exit_code_for(diagnoses)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """``repro serve-bench``: time the resident query service."""
    from repro.service import (RiskEngine, TypoRiskIndex, record_query_service,
                               run_serve_bench)

    if args.chaos or args.fault_plan:
        return _serve_bench_chaos(args)
    model = None
    if args.score_mode == "learned":
        from repro.learned.model import load_model
        from repro.util.errors import ConfigError

        if not args.model:
            raise ConfigError("--score-mode learned requires --model "
                              "PATH (train one with `repro train`)")
        model = load_model(args.model)
    engine = None
    if args.load_index:
        index = TypoRiskIndex.load(args.load_index)
        print(f"loaded index {args.load_index}: seed={index.seed} "
              f"ranks={index.max_rank} day={index.day}", file=sys.stderr)
    elif args.save_index:
        index = TypoRiskIndex(args.seed, args.ranks)
    else:
        index = None  # run_serve_bench builds (and times) its own
    if index is not None:
        engine = RiskEngine(
            index, max_cached_verdicts=max(1 << 15, 8 * args.pool_size),
            scorer=args.score_mode, model=model)
    result = run_serve_bench(
        args.seed, args.ranks, lookups=args.lookups,
        pool_size=args.pool_size, warmup=not args.no_warmup,
        parity=args.parity, engine=engine,
        score_mode=args.score_mode, model=model)
    for line in result.report_lines():
        print(line)
    if args.save_index:
        index.save(args.save_index)
        print(f"index saved to {args.save_index}", file=sys.stderr)
    if args.bench_out:
        record_query_service(result.entry(), args.bench_out)
        print(f"recorded query_service entry in {args.bench_out}",
              file=sys.stderr)
    return 0


def _serve_bench_chaos(args: argparse.Namespace) -> int:
    """``repro serve-bench --chaos/--fault-plan``: resilient serving.

    Runs the workload through the fault-injecting resilient layer and
    reports per-lane throughput/latency, shed/degraded/recovered
    counts, and the replay digest; ``--bench-out`` records the run into
    the ``service_chaos`` section.
    """
    from repro.faultsim import FaultPlan
    from repro.service import record_service_chaos, run_serve_chaos_bench
    from repro.util.errors import ConfigError

    if args.fault_plan:
        plan = _load_fault_plan(args)
    else:
        try:
            plan = FaultPlan.service_chaos_demo(args.seed,
                                                lookups=args.lookups)
        except ValueError as error:
            raise ConfigError(str(error)) from error
    result = run_serve_chaos_bench(
        args.seed, args.ranks, lookups=args.lookups,
        pool_size=args.pool_size, plan=plan)
    for line in result.report_lines():
        print(line)
    if args.bench_out:
        record_service_chaos(result.entry(), args.bench_out)
        print(f"recorded service_chaos entry in {args.bench_out}",
              file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: fit both lanes and persist the artifact."""
    from time import perf_counter

    from repro.learned import save_model, train_typo_model

    print(f"training the learned detector (seed={args.seed}, "
          f"ranks={args.ranks}, corpus={args.dataset_size}/profile)...",
          file=sys.stderr)
    start = perf_counter()
    model, stats = train_typo_model(
        args.seed, ranks=args.ranks, dataset_size=args.dataset_size,
        jobs=args.jobs)
    elapsed = perf_counter() - start
    digest = save_model(model, args.out)
    print(f"trained in {elapsed:.1f}s: domain lane on "
          f"{stats['domain_rows']:,} registered typos "
          f"({stats['domain_positives']:,} squatted), message lane on "
          f"{stats['message_rows']:,} emails "
          f"({stats['message_positives']:,} spam)")
    print(f"model written to {args.out} (digest sha256:{digest})")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: the Table-3-style detector comparison."""
    from repro.learned import evaluate_model
    from repro.learned.model import load_model

    model = load_model(args.model)
    print(f"evaluating model sha256:{model.digest()[:12]}... "
          f"(train seed {model.seed}) against the rule funnel",
          file=sys.stderr)
    report = evaluate_model(model, args.seed,
                            dataset_size=args.dataset_size)
    print(report.format_table())
    print(f"metrics digest: sha256:{report.metrics_digest()}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiment import ExperimentConfig, run_seed_sweep

    print(f"running the study under {len(args.seeds)} seeds...",
          file=sys.stderr)
    summary = run_seed_sweep(
        args.seeds, base_config=ExperimentConfig(spam_scale=args.spam_scale),
        jobs=args.jobs)
    print(f"{'headline':34s} {'mean':>14s} {'95% CI':>30s}")
    for name, distribution in summary.headlines.items():
        ci = f"[{distribution.ci_low:,.0f}, {distribution.ci_high:,.0f}]"
        print(f"{name:34s} {distribution.mean:14,.0f} {ci:>30s}")
    accuracy_low = min(summary.funnel_accuracies)
    print(f"funnel accuracy across seeds: >= {accuracy_low:.1%}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
