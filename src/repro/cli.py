"""Command-line interface: ``python -m repro <command>``.

Commands
--------
analyze   run the analyzer over a MiniFortran file, print CONSTANTS sets
run       execute a file under the reference interpreter
lint      run the diagnostics passes; text, JSON, or SARIF output
tables    regenerate the paper's tables and Figure 1
workload  print (or save) one generated suite program
clone     one goal-directed cloning round over a file
serve     run the analysis daemon (stdio-JSONL or HTTP/JSON)
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import analyze
from repro.frontend.errors import FrontendError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Interprocedural constant propagation — a reproduction of "
            "Grove & Torczon, PLDI 1993"
        ),
    )
    parser.add_argument(
        "--traceback", action="store_true",
        help="print full tracebacks instead of one-line typed errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = sub.add_parser("analyze", help="analyze a MiniFortran file")
    analyze_cmd.add_argument("file")
    analyze_cmd.add_argument(
        "--jump-function",
        choices=[k.value for k in JumpFunctionKind],
        default=JumpFunctionKind.PASS_THROUGH.value,
    )
    analyze_cmd.add_argument(
        "--analysis",
        choices=["constprop", "copyprop", "modref"],
        default="constprop",
        help="which framework analysis to run: the paper's constant "
             "propagation (default), interprocedural copy propagation, "
             "or MOD/REF summaries re-derived through the dataflow "
             "engine",
    )
    analyze_cmd.add_argument("--no-mod", action="store_true",
                             help="drop interprocedural MOD information")
    analyze_cmd.add_argument("--no-returns", action="store_true",
                             help="disable return jump functions")
    analyze_cmd.add_argument("--complete", action="store_true",
                             help="iterate with dead-code elimination")
    analyze_cmd.add_argument("--intraprocedural", action="store_true",
                             help="the Table 3 baseline: no propagation "
                                  "between procedures")
    analyze_cmd.add_argument("--compose", action="store_true",
                             help="compose return jump functions "
                                  "symbolically (extension)")
    analyze_cmd.add_argument("--transform", action="store_true",
                             help="print the transformed source")
    analyze_cmd.add_argument("--stats", action="store_true",
                             help="print per-stage timings, solver counters, "
                                  "and stage-0 cache state")
    analyze_cmd.add_argument("--verify", action="store_true",
                             help="validate IR and SSA invariants after "
                                  "lowering; non-zero exit on a violation")
    analyze_cmd.add_argument("--max-passes", type=int, default=None,
                             metavar="N",
                             help="solver fuel: cap monotone worklist "
                                  "passes (degrades the jump function "
                                  "instead of failing)")
    analyze_cmd.add_argument("--max-evaluations", type=int, default=None,
                             metavar="N",
                             help="solver fuel: cap jump-function "
                                  "evaluations")
    analyze_cmd.add_argument("--max-meets", type=int, default=None,
                             metavar="N",
                             help="solver fuel: cap lattice meets")
    analyze_cmd.add_argument("--no-degrade", action="store_true",
                             help="fail on budget exhaustion instead of "
                                  "walking the degradation ladder")
    analyze_cmd.add_argument("--parallel", type=int, default=None,
                             metavar="N",
                             help="solve stage 3 on N worker processes, "
                                  "wave by wave of the SCC condensation "
                                  "(falls back to sequential on any "
                                  "pool failure, RL540)")
    analyze_cmd.add_argument("--flat", action="store_true",
                             help="solve stage 3 on the flat slab engine "
                                  "(integer-coded lattice slots, CSR "
                                  "fan-out, batched drains; identical "
                                  "VALs, built for 1k+-procedure corpora)")
    analyze_cmd.add_argument("--store", default=None, metavar="DIR",
                             help="persistent artifact store directory; the "
                                  "run publishes its jump functions and "
                                  "solution there as a snapshot")
    analyze_cmd.add_argument("--incremental", action="store_true",
                             help="warm-start from the --store snapshot: "
                                  "re-solve only procedures whose "
                                  "fingerprints changed (plus their "
                                  "transitive callees)")
    analyze_cmd.add_argument("--profile-json", default=None, metavar="PATH",
                             help="dump per-stage timings and all solver/"
                                  "cache/region/store counters as JSON")

    run_cmd = sub.add_parser("run", help="execute a file")
    run_cmd.add_argument("file")
    run_cmd.add_argument("--input", type=int, action="append", default=[],
                         help="value for the next READ (repeatable)")
    run_cmd.add_argument("--max-steps", type=int, default=2_000_000)
    run_cmd.add_argument("--check", action="store_true",
                         help="cross-check CONSTANTS claims against the "
                              "observed execution (soundness probe)")

    lint_cmd = sub.add_parser(
        "lint", help="run the diagnostics passes over programs"
    )
    lint_cmd.add_argument("files", nargs="*",
                          help="MiniFortran source files to lint")
    lint_cmd.add_argument("--workloads", action="store_true",
                          help="also lint every generated workload program")
    lint_cmd.add_argument("--scale", type=float, default=1.0,
                          help="workload scale factor (with --workloads)")
    lint_cmd.add_argument("--format", choices=["text", "json", "sarif"],
                          default="text")
    lint_cmd.add_argument("--select", action="append", default=None,
                          metavar="PASS",
                          help="run exactly the named pass (repeatable)")
    lint_cmd.add_argument("--sanitize", action="store_true",
                          help="enable the lattice sanitizer (re-solves "
                               "each program with invariant checking)")
    lint_cmd.add_argument("--list-passes", action="store_true",
                          help="list the registered passes and exit")
    lint_cmd.add_argument("-o", "--output", default=None,
                          help="write the report to a file instead of stdout")

    tables_cmd = sub.add_parser("tables", help="regenerate the paper tables")
    tables_cmd.add_argument(
        "--which", choices=["1", "2", "3", "fig1", "costs", "all"],
        default="all",
    )
    tables_cmd.add_argument("--scale", type=float, default=1.0)
    tables_cmd.add_argument("--processes", type=int, default=None,
                            help="fan the table sweeps across N worker "
                                 "processes (default: in-process)")
    tables_cmd.add_argument("--parallel", type=int, default=None,
                            metavar="N",
                            help="solve each cell's stage 3 on N region "
                                 "workers (wave-parallel schedule; "
                                 "table counts are unchanged)")
    tables_cmd.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-task wall-clock budget (needs "
                                 "--processes; a hung program becomes a "
                                 "timeout record, not a hung run)")
    tables_cmd.add_argument("--retries", type=int, default=2,
                            help="re-attempts per failing program before "
                                 "it is quarantined (default: 2)")
    tables_cmd.add_argument("--journal", default=None, metavar="PATH",
                            help="JSONL checkpoint journal; an interrupted "
                                 "sweep resumes from completed cells "
                                 "(written per table as PATH.table2/.table3)")
    tables_cmd.add_argument("--stats", action="store_true",
                            help="print executor statistics: executed vs "
                                 "resumed cells, retries, per-worker "
                                 "stage-0 cache counters")
    tables_cmd.add_argument("--store", default=None, metavar="DIR",
                            help="shared artifact store: every sweep cell "
                                 "(in every worker process) publishes to "
                                 "and warm-starts from DIR")

    workload_cmd = sub.add_parser("workload", help="emit a suite program")
    workload_cmd.add_argument("name")
    workload_cmd.add_argument("--scale", type=float, default=1.0)
    workload_cmd.add_argument("-o", "--output", default=None)

    clone_cmd = sub.add_parser("clone", help="one procedure-cloning round")
    clone_cmd.add_argument("file")
    clone_cmd.add_argument("--max-clones", type=int, default=3)
    clone_cmd.add_argument("--transform", action="store_true",
                           help="print the cloned source")

    serve_cmd = sub.add_parser(
        "serve", help="run the analysis-as-a-service daemon"
    )
    serve_cmd.add_argument("--http", type=int, default=None, metavar="PORT",
                           help="serve HTTP/JSON on PORT (default: "
                                "stdio-JSONL on stdin/stdout)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address for --http "
                                "(default: 127.0.0.1)")
    serve_cmd.add_argument("--store", default=None, metavar="DIR",
                           help="persistent artifact store: responses and "
                                "snapshots survive restarts, repeats answer "
                                "warm")
    serve_cmd.add_argument("--journal", default=None, metavar="PATH",
                           help="crash-safe request journal; on restart "
                                "in-flight requests are replayed (or "
                                "refused with --no-replay)")
    serve_cmd.add_argument("--no-replay", action="store_true",
                           help="refuse journaled in-flight requests on "
                                "restart (RL556) instead of replaying them")
    serve_cmd.add_argument("--workers", type=int, default=2,
                           help="concurrent solver slots (default: 2)")
    serve_cmd.add_argument("--queue-limit", type=int, default=8,
                           help="max requests waiting for a slot before "
                                "RL550 rejections (default: 8)")
    serve_cmd.add_argument("--tenant-rate", type=float, default=5.0,
                           help="per-tenant token refill rate, requests/s "
                                "(default: 5)")
    serve_cmd.add_argument("--tenant-burst", type=int, default=20,
                           help="per-tenant burst capacity (default: 20)")
    serve_cmd.add_argument("--request-timeout", type=float, default=30.0,
                           help="default per-request deadline in seconds; "
                                "expiry cancels the solve cooperatively "
                                "(RL554)")
    serve_cmd.add_argument("--breaker-threshold", type=int, default=3,
                           help="solver failures per breaker rung "
                                "(default: 3)")
    serve_cmd.add_argument("--breaker-cooldown", type=float, default=5.0,
                           help="seconds an open breaker waits before its "
                                "half-open probe (default: 5)")
    serve_cmd.add_argument("--chaos", default=None, metavar="JSON",
                           help="arm a deterministic chaos spec (the "
                                "spec_to_json wire format) — test use only")

    store_cmd = sub.add_parser(
        "store", help="maintain a persistent artifact store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    gc_cmd = store_sub.add_parser(
        "gc", help="evict least-recently-verified artifacts"
    )
    gc_cmd.add_argument("--store", required=True, metavar="DIR",
                        help="artifact store directory to compact")
    gc_cmd.add_argument("--max-bytes", type=int, required=True,
                        metavar="N",
                        help="evict least-recently-verified objects until "
                             "the objects/ tree fits in N bytes; snapshot "
                             "lines referencing evicted artifacts are "
                             "dropped from the index")
    return parser


def _config_from(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        jump_function=JumpFunctionKind(args.jump_function),
        use_return_jump_functions=not args.no_returns,
        use_mod=not args.no_mod,
        complete=args.complete,
        intraprocedural_only=args.intraprocedural,
        compose_return_functions=args.compose,
        max_solver_passes=args.max_passes,
        max_evaluations=args.max_evaluations,
        max_meets=args.max_meets,
        degrade_on_budget=not args.no_degrade,
        parallel_regions=args.parallel,
        flat_engine=getattr(args, "flat", False),
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    if args.incremental and not args.store:
        print("analyze: --incremental needs --store DIR", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from repro.store import ArtifactStore

        store = ArtifactStore(args.store)
    result = analyze(
        source, _config_from(args), store=store, incremental=args.incremental
    )
    if args.verify:
        from repro.diagnostics import LintContext, run_passes

        report = run_passes(
            LintContext(result, path=args.file), select=["ir-wellformed"]
        )
        if report.diagnostics:
            for diag in report.diagnostics:
                print(diag.format_text(), file=sys.stderr)
            if report.has_errors:
                return 1
        else:
            print("verify: IR and SSA invariants hold", file=sys.stderr)
    if args.analysis != "constprop":
        return _analyze_client(result, args)
    print(f"configuration: {result.config.describe()}")
    for diag in result.resilience_diagnostics():
        # RL5xx: the run degraded to stay alive — never report silently
        print(diag.format_text(), file=sys.stderr)
    print(f"constants substituted (pairs): {result.constants_found}")
    print(f"references replaced:           {result.references_substituted}")
    print()
    for proc, constants in sorted(result.all_constants().items()):
        if constants:
            pretty = ", ".join(f"{k} = {v}" for k, v in sorted(constants.items()))
            print(f"CONSTANTS({proc}) = {{{pretty}}}")
    if args.stats:
        from repro.core.driver import GLOBAL_STAGE0_CACHE

        print()
        print(result.stats_report())
        for key, value in GLOBAL_STAGE0_CACHE.counters().items():
            print(f"  {key} {value}")
    if args.profile_json:
        import json

        with open(args.profile_json, "w") as handle:
            json.dump(result.stats_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote profile to {args.profile_json}", file=sys.stderr)
    if args.transform:
        print()
        print(result.transformed_source())
    return 0


def _client_stats(client_result) -> None:
    print()
    print(f"{client_result.analysis} solver counters:")
    for key, value in client_result.counters().items():
        print(f"  {key:18} {value}")


def _analyze_client(result, args: argparse.Namespace) -> int:
    """Run one of the framework clients over the analyzed artifacts and
    print its facts (``repro analyze --analysis copyprop|modref``)."""
    from repro.framework.engine import solve_client

    def pretty(key) -> str:
        return key if isinstance(key, str) else result.program.global_display(key)

    print(f"configuration: {result.config.describe()}")
    print(f"analysis: {args.analysis}")
    if args.analysis == "copyprop":
        from repro.framework.clients.copyprop import (
            CopyOf,
            CopyPropClient,
            copy_facts,
        )
        from repro.core.lattice import is_constant

        solved = solve_client(
            result.lowered,
            result.call_graph,
            CopyPropClient(result.forward),
        )
        constants = copies = 0
        for proc in sorted(solved.val):
            env = solved.val[proc]
            shown = {
                key: value
                for key, value in env.items()
                if value.__class__ is CopyOf or is_constant(value)
            }
            constants += sum(
                1 for v in shown.values() if v.__class__ is not CopyOf
            )
            if shown:
                rendered = ", ".join(
                    f"{pretty(k)} = "
                    + (
                        f"copy-of {v.proc}::{pretty(v.key)}"
                        if v.__class__ is CopyOf
                        else str(v)
                    )
                    for k, v in sorted(
                        shown.items(), key=lambda item: pretty(item[0])
                    )
                )
                print(f"COPIES({proc}) = {{{rendered}}}")
        copies = sum(len(env) for env in copy_facts(solved).values())
        print(f"constant facts: {constants}")
        print(f"copy facts beyond constprop: {copies}")
        if args.stats:
            _client_stats(solved)
        return 0
    # modref
    from repro.framework.clients.modref import (
        ModRefClient,
        cross_check_modref,
    )

    solved = solve_client(result.lowered, result.call_graph, ModRefClient())

    def render(slots) -> str:
        names = sorted(
            f"{pretty(payload)}" if kind == "formal" else pretty(payload)
            for kind, payload in slots
        )
        return "{" + ", ".join(names) + "}"

    for proc in sorted(solved.val):
        env = solved.val[proc]
        print(f"MOD({proc}) = {render(env.get('mod', frozenset()))}")
        print(f"REF({proc}) = {render(env.get('ref', frozenset()))}")
    findings = cross_check_modref(
        result.lowered, result.call_graph, solved, info=result.modref
    )
    for diag in findings:
        print(diag.format_text(), file=sys.stderr)
    if not findings:
        print("cross-check: summaries agree with callgraph.modref",
              file=sys.stderr)
    if args.stats:
        _client_stats(solved)
    return 1 if findings else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.interp import InterpError, run_program

    with open(args.file) as handle:
        source = handle.read()
    try:
        trace = run_program(source, inputs=args.input, max_steps=args.max_steps)
    except InterpError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return 1
    for value in trace.outputs:
        print(value)
    print(f"({trace.steps} steps)", file=sys.stderr)
    if args.check:
        from repro.interp.soundness import soundness_diagnostics

        result = analyze(source)
        diagnostics = soundness_diagnostics(result, trace)
        for diag in diagnostics:
            print(diag.format_text(), file=sys.stderr)
        if diagnostics:
            return 1
        print("check: CONSTANTS claims hold on this execution",
              file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.diagnostics import (
        Diagnostic,
        LintReport,
        Severity,
        default_registry,
        describe_code,
        run_passes,
    )
    from repro.diagnostics.emit import EMITTERS
    from repro.frontend.source import SourceSpan

    registry = default_registry()
    if args.list_passes:
        for pass_ in registry.passes():
            marker = "" if pass_.default_enabled else " (opt-in)"
            print(f"{pass_.name:24} {pass_.code:7} "
                  f"{pass_.description}{marker}")
        return 0

    targets: list[tuple[str, str]] = []
    for path in args.files:
        with open(path) as handle:
            targets.append((path, handle.read()))
    if args.workloads:
        from repro.workloads import load, suite_names

        for name in suite_names():
            workload = load(name, scale=args.scale)
            targets.append((f"workload:{name}", workload.source))
    if not targets:
        print("lint: no input (pass files and/or --workloads)",
              file=sys.stderr)
        return 2

    front_end_code = describe_code(
        "RL000", "program rejected by the front end"
    )
    enable = ("lattice-sanitizer",) if args.sanitize else ()
    reports = []
    for label, source in targets:
        try:
            reports.append(
                run_passes(
                    source,
                    registry=registry,
                    select=args.select,
                    enable=enable,
                    path=label,
                )
            )
        except FrontendError as error:
            location = error.location
            span = (
                SourceSpan(location, location) if location is not None else None
            )
            reports.append(
                LintReport(
                    diagnostics=[
                        Diagnostic(
                            code=front_end_code,
                            severity=Severity.ERROR,
                            message=str(error),
                            pass_name="frontend",
                            span=span,
                            path=label,
                        )
                    ]
                )
            )
    report = LintReport.merged(reports)
    rendered = EMITTERS[args.format](report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        counts = report.counts()
        print(f"wrote {len(report.diagnostics)} finding(s) to {args.output} "
              f"({counts['error']} error(s))", file=sys.stderr)
    else:
        print(rendered, end="")
    return 1 if report.has_errors else 0


def _tables_policy(args: argparse.Namespace, table: str):
    from repro.resilience.executor import SweepPolicy

    journal = f"{args.journal}.{table}" if args.journal else None
    return SweepPolicy(
        processes=args.processes,
        task_timeout=args.timeout,
        max_retries=args.retries,
        journal_path=journal,
        store_path=args.store,
    )


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro import reporting

    which = args.which
    outcomes = {}
    if which in ("fig1", "all"):
        print(reporting.figure1_meet_table())
        print()
    if which in ("1", "all"):
        print(reporting.format_table1(reporting.run_table1(args.scale)))
        print()
    if which in ("2", "all"):
        rows, outcome = reporting.run_table2_outcome(
            args.scale, _tables_policy(args, "table2"),
            parallel=args.parallel)
        outcomes["table2"] = outcome
        print(reporting.format_table2(rows, outcome))
        print()
    if which in ("3", "all"):
        rows, outcome = reporting.run_table3_outcome(
            args.scale, _tables_policy(args, "table3"),
            parallel=args.parallel)
        outcomes["table3"] = outcome
        print(reporting.format_table3(rows, outcome))
        print()
    if which in ("costs", "all"):
        print(reporting.format_cost_report(reporting.run_cost_report(args.scale)))
    if args.stats and outcomes:
        for label, outcome in outcomes.items():
            print(f"{label}: executed {outcome.executed_cells} cell(s), "
                  f"resumed {outcome.resumed_cells} from journal, "
                  f"{outcome.retries} retried task(s)", file=sys.stderr)
            counters = ", ".join(
                f"{key}={value}"
                for key, value in outcome.cache_counters.items()
            )
            print(f"{label}: stage-0 cache (per-worker deltas): {counters}",
                  file=sys.stderr)
    # partial tables still render, but the exit code says so
    return 0 if all(o.complete for o in outcomes.values()) else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import load, suite_names

    if args.name not in suite_names():
        print(f"unknown workload {args.name!r}; choose from "
              f"{', '.join(suite_names())}", file=sys.stderr)
        return 1
    workload = load(args.name, scale=args.scale)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(workload.source)
        print(f"wrote {workload.line_count} lines to {args.output}")
        if workload.inputs:
            print(f"inputs needed for READ statements: {workload.inputs}")
    else:
        print(workload.source)
    return 0


def _cmd_clone(args: argparse.Namespace) -> int:
    from repro.core.cloning import clone_and_reanalyze

    with open(args.file) as handle:
        source = handle.read()
    report = clone_and_reanalyze(source, max_clones_per_procedure=args.max_clones)
    print(f"constants before: {report.constants_before}")
    print(f"constants after:  {report.constants_after}")
    print(f"clones created:   {report.clones_created}")
    print(f"code growth:      {report.code_growth:.2f}x")
    for group in report.groups:
        if group.clone_name:
            vector = ", ".join(f"{k}={v}" for k, v in group.vector)
            print(f"  {group.callee} -> {group.clone_name} "
                  f"[{vector}] at {len(group.site_ids)} site(s)")
    if args.transform and report.transformed_source:
        print()
        print(report.transformed_source)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import RequestJournal
    from repro.service.server import AnalysisService, ServicePolicy, serve_http
    from repro.service.server import serve_stdio

    if args.chaos:
        import json as _json

        from repro.resilience import chaos

        chaos.install(
            chaos.spec_from_json(_json.loads(args.chaos)),
            label="service",
            in_worker=True,  # a `kill` fault dies like a real kill -9
        )
    store = None
    if args.store:
        from repro.store import ArtifactStore

        store = ArtifactStore(args.store)
    journal = RequestJournal(args.journal) if args.journal else None
    policy = ServicePolicy(
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        request_timeout=args.request_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        replay=not args.no_replay,
    )
    service = AnalysisService(policy, store=store, journal=journal)
    for event in service.recovered:
        print(f"serve: recovered journaled request {event['id']}: "
              f"{event['status']}", file=sys.stderr)
    if args.http is not None:
        return serve_http(service, args.host, args.http)
    return serve_stdio(service)


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.store import ArtifactStore

    store = ArtifactStore(args.store)
    report = store.gc(args.max_bytes)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "run": _cmd_run,
    "lint": _cmd_lint,
    "tables": _cmd_tables,
    "workload": _cmd_workload,
    "clone": _cmd_clone,
    "serve": _cmd_serve,
    "store": _cmd_store,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as error:
        # One-line typed error (stage + span + message) by default;
        # --traceback opts back into the raw stack for debugging.
        if args.traceback:
            raise
        from repro.resilience.errors import format_cli_error

        print(format_cli_error(error), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
