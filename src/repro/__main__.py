"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the common workflows without writing a script:

* ``simulate`` — trace one workload and run it under one policy;
* ``sweep`` — a (workload x policy) matrix with speed-ups over LRU,
  fanned out over ``--jobs`` worker processes with on-disk caching;
  ``--retries``/``--cell-timeout`` arm the fault-tolerance layer; every
  cached run is journalled so an interrupted sweep (SIGTERM, SIGINT,
  even ``kill -9``) resumes with ``--resume <run_id>``; exit code 75
  means "interrupted but resumable";
* ``profile`` — run one cell with interval-resolved telemetry armed and
  render (or dump as JSON) its profile;
* ``sample`` — inspect a workload's representative-interval sampling
  plan, or (``--validate``) measure sampled-vs-full error over whole
  suites;
* ``cache`` — inspect/verify/clear/prune the sweep engine's result cache;
* ``chaos`` — deterministic fault injection (worker crashes, hangs,
  corrupt cache entries, truncated traces) over a small GAP sweep,
  asserting every recovery path end-to-end; ``--scenario v2`` adds
  whole-process SIGKILL + resume, disk-full and memory-bomb scenarios;
* ``experiment`` — regenerate one of the paper's tables/figures;
* ``lint`` — run the policy-contract static analyzer (and, with
  ``--sanitize-selftest``, the runtime invariant sanitizer);
* ``verify-fastpath`` — prove the fast and reference execution engines
  bit-identical across policies x traces (telemetry off and on).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis.tables import format_table
from .core.config import cascade_lake
from .core.simulator import simulate
from .errors import ReproError
from .gap.suite import GAP_KERNELS, GapWorkloadSpec, build_graph, run_kernel
from .graphs.csr import CSRGraph
from .harness import experiments as exp
from .harness.runner import run_matrix
from .policies.registry import BASELINE_POLICY, PAPER_POLICIES, available_policies
from .spec.suite import build_spec_workload, spec06_workloads, spec17_workloads

EXPERIMENTS = {
    "table1": exp.experiment_table1,
    "fig2": exp.experiment_fig2,
    "fig3": exp.experiment_fig3,
    "e1": exp.experiment_llc_mpki,
    "e2": exp.experiment_pc_characterization,
    "e3": exp.experiment_reuse_distance,
    "e4": exp.experiment_opt_headroom,
    "e5": exp.experiment_dram_traffic,
    "e6": exp.experiment_llc_sensitivity,
    "e7": exp.experiment_policy_ablation,
    "e8": exp.experiment_prefetch_sensitivity,
    "e9": exp.experiment_graph_family,
    "e10": exp.experiment_miss_classification,
    "e11": exp.experiment_hardware_budget,
}


def _build_trace(workload: str, window: int, graphs: dict[int, CSRGraph] | None = None):
    """Resolve 'gap.<kernel>[.scaleN]' or 'spec06/17.<name>' to a trace.

    ``graphs`` holds the GAP graphs built so far, keyed by scale; a
    command passes one dict to every call so each graph is built once.
    """
    parts = workload.split(".")
    if parts[0] == "gap":
        if len(parts) < 2 or parts[1] not in GAP_KERNELS:
            raise ReproError(
                f"gap workload must be gap.<kernel>, kernels: {', '.join(GAP_KERNELS)}"
            )
        scale = int(parts[2]) if len(parts) > 2 else 16
        spec = GapWorkloadSpec(kernel=parts[1], graph_name="kron", scale=scale, degree=16)
        if graphs is None:
            graphs = {}
        if scale not in graphs:
            graphs[scale] = build_graph(spec)
        return run_kernel(
            parts[1], graphs[scale], trace_name=spec.name, max_accesses=window
        ).trace
    if parts[0] in ("spec06", "spec17"):
        if len(parts) != 2:
            names = spec06_workloads() if parts[0] == "spec06" else spec17_workloads()
            raise ReproError(
                f"{parts[0]} workload must be {parts[0]}.<name>, names: {', '.join(names)}"
            )
        return build_spec_workload(parts[0], parts[1], num_accesses=window)
    raise ReproError(
        f"unknown workload {workload!r}; use gap.<kernel>[.scale], "
        "spec06.<name> or spec17.<name>"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    """Trace one workload and simulate it under one policy."""
    trace = _build_trace(args.workload, args.window)
    result = simulate(trace, config=cascade_lake(), llc_policy=args.policy,
                      sanitize=args.sanitize)
    print(result.summary())
    print(format_table(
        ["level", "demand accesses", "hit rate", "MPKI"],
        [
            [lvl, result.levels[lvl].demand_accesses,
             result.levels[lvl].demand_hit_rate, result.mpki(lvl)]
            for lvl in ("L1I", "L1D", "L2C", "LLC")
        ],
    ))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one cell with telemetry armed and render its profile."""
    import json

    from .harness.report import render_profile
    from .telemetry import TelemetryConfig, TelemetryProfile

    trace = _build_trace(args.workload, args.window)
    result = simulate(
        trace,
        config=cascade_lake(),
        llc_policy=args.policy,
        telemetry=TelemetryConfig(interval_instructions=args.interval),
    )
    profile = TelemetryProfile.from_result(result)
    problems = profile.validate_totals(result)
    if problems:  # cannot happen unless the collector is broken
        for problem in problems:
            print(f"telemetry inconsistency: {problem}", file=sys.stderr)
        return 1
    if args.json:
        Path(args.json).write_text(
            json.dumps(profile.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}", file=sys.stderr)
    print(render_profile(profile, markdown=args.markdown))
    return 0


def _sampling_spec_from(args: argparse.Namespace):
    """A SamplingSpec from ``--sampling``, or None when sampling is off."""
    if not getattr(args, "sampling", None):
        return None
    from .sampling import SamplingSpec

    return SamplingSpec.from_string(args.sampling)


def cmd_sample(args: argparse.Namespace) -> int:
    """Inspect a sampling plan, or validate sampled-vs-full accuracy."""
    import json

    from .sampling import SamplingSpec, build_plan, run_validation

    spec = SamplingSpec.from_string(args.spec)
    if args.validate:
        report = run_validation(
            suites=tuple(args.suites),
            spec=spec,
            progress=lambda cell: print(f"  validating {cell} ...", file=sys.stderr),
        )
        if args.json:
            Path(args.json).write_text(
                json.dumps(report.to_json_dict(), indent=2) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {args.json}", file=sys.stderr)
        print(report.render())
        return 0
    if not args.workloads:
        raise ReproError("sample needs at least one workload (or --validate)")
    for workload in args.workloads:
        trace = _build_trace(workload, args.window)
        plan = build_plan(trace, spec)
        print(plan.summary())
        if args.verbose:
            for interval in plan.intervals:
                print(
                    f"  interval {interval.index}: records "
                    f"[{interval.start}, {interval.stop}) "
                    f"warm from {interval.warm_start}, "
                    f"weight {interval.weight} (cluster {interval.cluster})"
                )
        if args.json:
            Path(args.json).write_text(
                json.dumps(plan.to_json_dict(), indent=2) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _default_cache_dir() -> Path:
    """The CLI's cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return Path(env)
    return Path("~/.cache/repro/sweeps").expanduser()


def _default_journal_dir() -> Path:
    """The CLI's run-journal root: ``REPRO_JOURNAL_DIR`` or ``~/.cache/repro/journal``.

    A sibling of the cache root, never inside it — ``repro cache clear``
    must not destroy resume state.
    """
    env = os.environ.get("REPRO_JOURNAL_DIR", "").strip()
    if env:
        return Path(env)
    return Path("~/.cache/repro/journal").expanduser()


def _retry_policy_from(args: argparse.Namespace):
    """A RetryPolicy from CLI flags, or None when resilience is off."""
    if not args.retries and args.cell_timeout is None:
        return None
    from .resilience import RetryPolicy

    return RetryPolicy(
        max_attempts=args.retries + 1,
        cell_timeout=args.cell_timeout,
        seed=args.retry_seed,
    )


def _add_retry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retries", type=int, default=0,
                        help="retry transient cell failures up to N times "
                             "with deterministic backoff (default: 0, off)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per cell, enforced by a "
                             "watchdog (forces worker processes; default: none)")
    parser.add_argument("--retry-seed", type=int, default=0,
                        help="seed of the deterministic backoff jitter "
                             "(default: 0)")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (workload x policy) matrix and print speed-ups over LRU."""
    from .errors import SweepInterrupted
    from .harness.engine import SweepEngine
    from .resilience.durability import (
        EXIT_INTERRUPTED,
        RunJournal,
        ShutdownCoordinator,
    )

    journal_dir = (
        Path(args.journal_dir) if args.journal_dir else _default_journal_dir()
    )
    if not args.workloads and not args.resume:
        raise ReproError("at least one workload is required (or --resume RUN_ID)")
    if args.resume:
        if args.no_cache:
            raise ReproError(
                "--resume needs the result cache (the journal records "
                "which cells finished; the cache holds their results) — "
                "drop --no-cache"
            )
        parsed = RunJournal.load(RunJournal.find(journal_dir, args.resume))
        if not parsed.context:
            raise ReproError(
                f"journal {args.resume} carries no CLI context; it was "
                "written by the API, not `repro sweep` — resume it from "
                "the same API call instead"
            )
        for key in ("workloads", "policies", "window", "sanitize",
                    "engine", "sampling"):
            setattr(args, key, parsed.context[key])
        print(
            f"resuming run {args.resume}: "
            f"{len(parsed.completed_cells)} cell(s) already journalled",
            file=sys.stderr,
        )

    graphs: dict[int, CSRGraph] = {}
    traces = {w: _build_trace(w, args.window, graphs) for w in args.workloads}
    policies = [BASELINE_POLICY, *(args.policies or PAPER_POLICIES)]
    use_journal = not args.no_cache and not args.no_journal
    cache_max_bytes = args.cache_max_bytes
    if cache_max_bytes is None:
        raw_budget = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
        cache_max_bytes = int(raw_budget) if raw_budget else None
    engine = SweepEngine(
        cache_dir=None if args.no_cache else _default_cache_dir(),
        jobs=args.jobs,
        journal_dir=journal_dir if use_journal else None,
        cache_max_bytes=cache_max_bytes,
    )
    # Everything `--resume` needs to rebuild this invocation rides in the
    # journal header; same arguments => same spec => same run id.
    journal_context = {
        "workloads": list(args.workloads),
        "policies": list(args.policies) if args.policies else None,
        "window": args.window,
        "sanitize": bool(args.sanitize),
        "engine": args.engine,
        "sampling": args.sampling,
    }
    shutdown = ShutdownCoordinator()
    try:
        with shutdown:
            matrix = run_matrix(
                traces, policies, config=cascade_lake(),
                progress=lambda w, p: print(f"  running {w} x {p} ...",
                                            file=sys.stderr),
                sanitize=args.sanitize,
                engine=engine,
                retry=_retry_policy_from(args),
                cell_engine=args.engine,
                sampling=_sampling_spec_from(args),
                memory_budget_mb=args.memory_budget_mb,
                shutdown=shutdown,
                drain_timeout=args.drain_timeout,
                journal_context=journal_context,
                failure_report_path=args.failure_report,
            )
    except SweepInterrupted as interrupted:
        print(f"sweep interrupted: {interrupted}", file=sys.stderr)
        if interrupted.run_id:
            print(f"resume with: repro sweep --resume {interrupted.run_id}",
                  file=sys.stderr)
        return EXIT_INTERRUPTED
    rows = [
        [w, *[matrix.speedup(w, p) for p in policies[1:]]]
        for w in matrix.workloads
    ]
    print(format_table(["workload", *policies[1:]], rows,
                       title="Speed-up over LRU"))
    stats = matrix.sweep_stats
    if stats is not None:
        resumed = f", {stats.resumed} resumed" if stats.resumed else ""
        print(
            f"engine: {stats.cells} cells, {stats.hits} from cache, "
            f"{stats.simulated} simulated{resumed} ({args.jobs} jobs)",
            file=sys.stderr,
        )
    if matrix.run_id is not None:
        print(f"run {matrix.run_id} journalled at {matrix.journal_path}",
              file=sys.stderr)
    if matrix.failure_report.cells:
        from .harness.report import render_failure_report

        print(render_failure_report(matrix.failure_report), file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the sweep engine's on-disk result cache."""
    import json

    from .harness.engine import ResultCache, simulator_salt

    if args.action == "salt":
        print(simulator_salt())
        return 0
    cache = ResultCache(args.cache_dir or _default_cache_dir())
    if args.action == "stats":
        print(cache.stats().render())
    elif args.action == "verify":
        report = cache.verify()
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        if report.quarantined:
            print(
                f"quarantined entries moved to "
                f"{cache.root / 'quarantine'}; they will be re-simulated",
                file=sys.stderr,
            )
        # Non-zero whenever the cache holds corrupt state — including
        # entries quarantined by *earlier* runs that nobody acted on.
        if not report.clean:
            return 1
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries")
    elif args.action == "prune":
        removed = cache.prune()
        print(f"pruned {removed} stale entries (current salt {cache.salt})")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault injection over a small GAP sweep (see docs/resilience.md)."""
    import json

    from .resilience import RetryPolicy, run_chaos
    from .resilience.chaos import CHAOS_V2_SCENARIOS, run_chaos_v2

    if args.scenario != "classic":
        scenarios = (
            CHAOS_V2_SCENARIOS if args.scenario == "v2"
            else (args.scenario,)
        )
        report = run_chaos_v2(
            seed=args.seed,
            scenarios=scenarios,
            kernels=tuple(args.kernels),
            policies=tuple(args.policies or ("lru", "srrip")),
            max_accesses=args.window,
            jobs=args.jobs,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
        )
        if args.json:
            Path(args.json).write_text(
                json.dumps(report.to_json_dict(), indent=2) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {args.json}", file=sys.stderr)
        print(report.render())
        return 0 if report.passed else 1

    retry = RetryPolicy(
        max_attempts=args.retries + 1,
        cell_timeout=args.cell_timeout,
        backoff_base=0.05,
        backoff_max=1.0,
        seed=args.seed,
    )
    report = run_chaos(
        seed=args.seed,
        kernels=tuple(args.kernels),
        policies=tuple(args.policies or ("lru", "srrip")),
        max_accesses=args.window,
        jobs=args.jobs,
        retry=retry,
        progress=lambda message: print(f"  {message}", file=sys.stderr),
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}", file=sys.stderr)
    print(report.render())
    return 0 if report.passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Run selected experiments into a single markdown report."""
    from .harness.report import generate_report

    selected = {
        name: EXPERIMENTS[name]
        for name in (args.experiments or sorted(EXPERIMENTS))
    }
    path = generate_report(
        selected,
        args.output,
        progress=lambda name: print(f"  running {name} ...", file=sys.stderr),
    )
    print(f"wrote {path}")
    return 0


def _sanitize_selftest() -> int:
    """Run every paper policy over synthetic traces with the sanitizer armed.

    The invariant checks fire on every cache operation; completing at all
    means zero violations. Returns the number of checks executed.
    """
    from .core.config import small_test_machine
    from .trace import synthetic

    traces = {
        "synthetic.zipf": synthetic.zipf_reuse(6000, num_blocks=600, seed=7),
        "synthetic.stream": synthetic.strided(6000, stride=64, elements=300),
        "synthetic.chase": synthetic.pointer_chase(6000, num_nodes=500, seed=3),
    }
    config = small_test_machine()
    checks = 0
    for name, trace in traces.items():
        for policy in (BASELINE_POLICY, *PAPER_POLICIES):
            result = simulate(trace, config=config, llc_policy=policy,
                              sanitize=True)
            checks += result.info["sanitizer_checks"]
            print(f"  {name} x {policy}: "
                  f"{result.info['sanitizer_checks']} checks, "
                  f"{result.info['sanitizer_evictions_verified']} evictions verified",
                  file=sys.stderr)
    return checks


def _resolve_baseline(args: argparse.Namespace) -> Path | None:
    """The baseline file to apply, honouring --baseline/--no-baseline.

    The default baseline describes the whole tree, so it is only picked
    up implicitly on full-tree runs; linting explicit paths applies it
    only when ``--baseline`` names it.
    """
    if args.no_baseline:
        return None
    from .lint import DEFAULT_BASELINE_NAME

    if args.baseline:
        path = Path(args.baseline)
        if not path.is_file():
            raise ReproError(f"baseline file not found: {path}")
        return path
    if args.paths:
        return None
    default = Path(DEFAULT_BASELINE_NAME)
    return default if default.is_file() else None


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer (and optionally the sanitizer selftest)."""
    from .lint import (
        Severity,
        apply_baseline,
        available_rules,
        lint_paths,
        lint_tree,
        make_rule,
        parse_baseline,
        render_json,
        render_markdown,
        render_text,
    )

    if args.list_rules:
        for name in available_rules():
            rule = make_rule(name)
            print(f"{name} ({rule.severity}): {rule.description}")
        return 0

    rules = [make_rule(name) for name in args.rules] if args.rules else None
    if args.paths:
        findings = lint_paths(args.paths, rules)
    else:
        findings = lint_tree(rules=rules)

    suppressed = 0
    baseline_path = _resolve_baseline(args)
    if baseline_path is not None:
        entries = parse_baseline(baseline_path)
        findings, suppressed = apply_baseline(findings, entries, baseline_path)

    if args.format == "json":
        print(render_json(findings, suppressed=suppressed))
    elif args.format == "markdown":
        print(render_markdown(findings, suppressed=suppressed))
    elif findings:
        print(render_text(findings))
    errors = sum(1 for f in findings if f.severity >= Severity.ERROR)
    warnings = sum(1 for f in findings if f.severity == Severity.WARNING)
    print(
        f"lint: {errors} error(s), {warnings} warning(s), "
        f"{suppressed} baselined",
        file=sys.stderr,
    )

    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if args.strict and step_summary:
        with open(step_summary, "a", encoding="utf-8") as fh:
            fh.write(render_markdown(findings, suppressed=suppressed) + "\n")

    rc = 0
    if errors or (args.strict and warnings):
        rc = 1

    if args.sanitize_selftest:
        print("sanitize selftest: paper policies over synthetic traces ...",
              file=sys.stderr)
        checks = _sanitize_selftest()
        print(f"sanitize selftest: {checks} invariant checks, 0 violations",
              file=sys.stderr)
    return rc


def cmd_verify_fastpath(args: argparse.Namespace) -> int:
    """Differential equivalence: fast engine vs reference engine."""
    from .harness.equivalence import default_verification_traces, verify_fastpath

    report = verify_fastpath(
        policies=args.policies or None,
        traces=default_verification_traces(num_accesses=args.accesses),
        warmup_fractions=tuple(args.warmup),
        include_telemetry=not args.no_telemetry,
        progress=args.verbose,
        engine=args.engine,
    )
    print(report.render())
    return 0 if report.passed else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one paper table/figure (optionally with a chart)."""
    report = EXPERIMENTS[args.name]()
    print(report.render())
    if args.chart:
        baseline = 1.0 if args.name == "fig3" else None
        print()
        print(report.chart(baseline=baseline))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IISWC'20 LLC-replacement-vs-big-data reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one workload under one policy")
    p_sim.add_argument("workload", help="gap.<kernel>[.scale] | spec06.<name> | spec17.<name>")
    p_sim.add_argument("--policy", default="lru", choices=available_policies())
    p_sim.add_argument("--window", type=int, default=200_000,
                       help="traced accesses (default 200k)")
    p_sim.add_argument("--sanitize", action="store_true",
                       help="arm runtime invariant checks on every cache level")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="(workload x policy) speed-up matrix")
    p_sweep.add_argument("workloads", nargs="*",
                         help="required unless --resume rebuilds them "
                              "from the journal header")
    p_sweep.add_argument("--policies", nargs="*", choices=available_policies())
    p_sweep.add_argument("--window", type=int, default=200_000)
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="worker processes for sweep cells "
                              "(default: all cores)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk result cache")
    p_sweep.add_argument("--sanitize", action="store_true",
                         help="arm runtime invariant checks on every cache level")
    p_sweep.add_argument("--engine", default="fast",
                         choices=("fast", "reference", "batched"),
                         help="simulation engine for uncached cells: "
                              "'batched' shares one decoded access stream "
                              "across all eligible policies per workload "
                              "(default: fast; all bit-identical)")
    p_sweep.add_argument("--sampling", metavar="SPEC", default=None,
                         help="run cells under representative-interval "
                              "sampling; SPEC is 'default' or "
                              "'k=4,window=0,warm=1,seed=0,"
                              "synthesis=checkpoint' "
                              "(see docs/sampling.md)")
    p_sweep.add_argument("--journal-dir", metavar="DIR", default=None,
                         help="run-journal root (default: $REPRO_JOURNAL_DIR "
                              "or ~/.cache/repro/journal)")
    p_sweep.add_argument("--no-journal", action="store_true",
                         help="disable the write-ahead run journal "
                              "(implied by --no-cache)")
    p_sweep.add_argument("--resume", metavar="RUN_ID", default=None,
                         help="resume an interrupted journalled run: "
                              "rebuilds the sweep from the journal header "
                              "and restarts at the first incomplete cell")
    p_sweep.add_argument("--failure-report", metavar="PATH", default=None,
                         help="write the failure report JSON here (default: "
                              "<run_id>-failures.json next to the journal)")
    p_sweep.add_argument("--memory-budget-mb", type=float, default=None,
                         metavar="MB",
                         help="per-worker RSS budget; cells that exceed it "
                              "fail with a retryable MemoryBudgetError "
                              "instead of drawing the OOM-killer "
                              "(default: off)")
    p_sweep.add_argument("--cache-max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="byte budget for the result cache; oldest "
                              "entries are evicted past it (default: "
                              "$REPRO_CACHE_MAX_BYTES or unlimited)")
    p_sweep.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="on SIGTERM/SIGINT, seconds to wait for "
                              "in-flight cells before abandoning them "
                              "(default: 30)")
    _add_retry_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser(
        "profile", help="interval-resolved telemetry profile of one cell")
    p_prof.add_argument("workload", help="gap.<kernel>[.scale] | spec06.<name> | spec17.<name>")
    p_prof.add_argument("policy", nargs="?", default="lru",
                        choices=available_policies(),
                        help="LLC replacement policy (default: lru)")
    p_prof.add_argument("--window", type=int, default=200_000,
                        help="traced accesses (default 200k)")
    p_prof.add_argument("--interval", type=int, default=10_000,
                        help="interval length in instructions (default 10k)")
    p_prof.add_argument("--json", metavar="PATH",
                        help="also write the versioned JSON profile here")
    p_prof.add_argument("--markdown", action="store_true",
                        help="render as markdown instead of plain text")
    p_prof.set_defaults(func=cmd_profile)

    p_sample = sub.add_parser(
        "sample",
        help="inspect representative-interval sampling plans, or "
             "--validate sampled-vs-full accuracy over whole suites")
    p_sample.add_argument("workloads", nargs="*",
                          help="gap.<kernel>[.scale] | spec06.<name> | "
                               "spec17.<name> (plan inspection mode)")
    p_sample.add_argument("--spec", default="default",
                          help="sampling spec: 'default' or "
                               "'k=4,window=0,warm=1,seed=0,reduction=12,"
                               "synthesis=recency|replay|checkpoint,"
                               "replay=4'")
    p_sample.add_argument("--window", type=int, default=200_000,
                          help="traced accesses (default 200k)")
    p_sample.add_argument("--validate", action="store_true",
                          help="run the sampled-vs-full validation harness "
                               "instead of inspecting plans")
    p_sample.add_argument("--suites", nargs="*", default=["gap", "spec06"],
                          choices=["gap", "spec06", "spec17"],
                          help="suites for --validate (default: gap spec06)")
    p_sample.add_argument("--json", metavar="PATH",
                          help="also write the plan/report as JSON here")
    p_sample.add_argument("--verbose", action="store_true",
                          help="list every selected interval")
    p_sample.set_defaults(func=cmd_sample)

    p_cache = sub.add_parser(
        "cache", help="inspect/verify/clear/prune the sweep result cache")
    p_cache.add_argument("action",
                         choices=["stats", "verify", "clear", "prune", "salt"])
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache root (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro/sweeps)")
    p_cache.add_argument("--json", action="store_true",
                         help="for verify: print the report as JSON "
                              "(machine-readable; exit code is unchanged)")
    p_cache.set_defaults(func=cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection: crash/hang workers, corrupt cache, "
             "truncate traces; assert full recovery")
    p_chaos.add_argument("--scenario", default="classic",
                         choices=["classic", "v2", "kill-resume",
                                  "disk-full", "memory-bomb"],
                         help="'classic' injects worker-level faults; 'v2' "
                              "runs the process/disk/memory scenarios "
                              "(SIGKILL + journal resume, ENOSPC "
                              "degradation, RSS memory bombs), or name "
                              "one v2 scenario (default: classic)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-schedule seed (default: 0)")
    p_chaos.add_argument("--kernels", nargs="*", default=["bfs", "pr"],
                         choices=GAP_KERNELS,
                         help="GAP kernels for the chaos matrix (default: bfs pr)")
    p_chaos.add_argument("--policies", nargs="*", choices=available_policies(),
                         help="policies for the chaos matrix (default: lru srrip)")
    p_chaos.add_argument("--window", type=int, default=20_000,
                         help="traced accesses per kernel (default 20k)")
    p_chaos.add_argument("--jobs", type=int, default=2,
                         help="worker processes (default: 2)")
    p_chaos.add_argument("--retries", type=int, default=2,
                         help="transient-failure retries per cell (default: 2)")
    p_chaos.add_argument("--cell-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="per-cell wall-clock budget (default: 10)")
    p_chaos.add_argument("--json", metavar="PATH",
                         help="also write the chaos report as JSON here")
    p_chaos.set_defaults(func=cmd_chaos)

    p_lint = sub.add_parser(
        "lint",
        help="whole-program static analyzer + invariant sanitizer",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean: no error-severity findings survived the baseline\n"
            "     (info-severity findings never fail a run)\n"
            "  1  error-severity findings present — including expired\n"
            "     baseline entries that still match; with --strict,\n"
            "     surviving warnings fail too\n"
            "\n"
            "See docs/linting.md for the analysis passes and the baseline "
            "format."
        ),
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the live "
                             "repro package plus registry/engine checks)")
    p_lint.add_argument("--rules", nargs="*", metavar="RULE",
                        help="subset of rules to run (default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too (the CI gate)")
    p_lint.add_argument("--format", choices=["text", "json", "markdown"],
                        default="text",
                        help="output format (default: text); --strict runs "
                             "also append the markdown summary to "
                             "$GITHUB_STEP_SUMMARY when it is set")
    p_lint.add_argument("--baseline", metavar="PATH",
                        help="baseline file of accepted findings (default "
                             "for full-tree runs: lint-baseline.txt in the "
                             "working directory, if present)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    p_lint.add_argument("--sanitize-selftest", action="store_true",
                        help="also run the paper policies over synthetic "
                             "traces with the runtime sanitizer armed")
    p_lint.set_defaults(func=cmd_lint)

    p_vf = sub.add_parser(
        "verify-fastpath",
        help="prove an optimized engine bit-identical to the reference")
    p_vf.add_argument("--engine", default="fast", choices=("fast", "batched"),
                      help="candidate engine to compare against the "
                           "reference (default: fast)")
    p_vf.add_argument("--policies", nargs="*", choices=available_policies(),
                      help="subset of policies (default: all registered)")
    p_vf.add_argument("--accesses", type=int, default=12_000,
                      help="records per verification trace (default 12k)")
    p_vf.add_argument("--warmup", type=float, nargs="*", default=[0.2],
                      help="warm-up fractions to cross (default: 0.2)")
    p_vf.add_argument("--no-telemetry", action="store_true",
                      help="skip the telemetry-armed half of the matrix")
    p_vf.add_argument("--verbose", action="store_true",
                      help="print each case as it completes")
    p_vf.set_defaults(func=cmd_verify_fastpath)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--chart", action="store_true",
                       help="also draw the result as terminal bars")
    p_exp.set_defaults(func=cmd_experiment)

    p_rep = sub.add_parser("report", help="run experiments into one markdown report")
    p_rep.add_argument("--output", default="report.md")
    p_rep.add_argument("--experiments", nargs="*", choices=sorted(EXPERIMENTS),
                       help="subset to run (default: all)")
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
