"""Command-line interface: run the paper's applications and inspect plans.

Examples::

    python -m repro gnmf --scale 4e-3 --iterations 5 --compare
    python -m repro pagerank --graph LiveJournal --workers 8
    python -m repro linreg --rows 2000 --features 80
    python -m repro plan gnmf --iterations 1          # Figure-3-style listing
    python -m repro plan gnmf --dot > plan.dot        # Graphviz export
    python -m repro stages gnmf --iterations 2        # runtime stage graph
    python -m repro lint examples/gnmf.dml            # static analysis
    python -m repro lint gnmf --format json
    python -m repro lint --selftest                   # prove the rules fire
    python -m repro verify gnmf                       # certificates + hazards + memory bound
    python -m repro verify pagerank --execute --format json
    python -m repro chaos pagerank --seed 7 --faults "lostblock:instance=rank,iteration=3"
    python -m repro run gnmf --trace                  # traced run + timeline
    python -m repro trace pagerank --format chrome --out trace.json  # Perfetto

Exit codes: 0 on success, 1 when the lint reports error-severity findings
(likewise when verify finds hazards, fails a rewrite certificate, or an
``--execute`` cross-check observes a peak above the static bound, or a
chaos run's recovered results diverge from the clean run), 2 when a
program or fault spec fails to parse.

Every ``--format json`` subcommand prints exactly one JSON document on
stdout; human-readable progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Sequence

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.core.analysis import explain, format_statistics
from repro.core.cost import CostModel
from repro.core.viz import plan_to_dot
from repro.datasets import PAPER_GRAPHS
from repro.errors import ProgramError
from repro.frontend.staged import segments_of
from repro.programs import singular_values
from repro.programs.registry import (
    ALL_APPS,
    PAPER_APPS,
    WorkloadParams,
    build_workload,
)

#: Exit codes shared by the plan/lint subcommands.
EXIT_OK = 0
EXIT_LINT_ERRORS = 1
EXIT_PARSE_ERROR = 2

#: The paper's seven applications.  Kept under the historical name for the
#: tests and benchmarks that parameterise over it; the full runnable list
#: (frontend demos included) is :data:`repro.programs.registry.ALL_APPS`.
APPS = PAPER_APPS


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=4, help="cluster workers (K)")
    parser.add_argument("--threads", type=int, default=4, help="threads per worker (L)")
    parser.add_argument("--block-size", type=int, default=None,
                        help="block rows/cols (default: Equation 3 automatic)")
    parser.add_argument("--compare", action="store_true",
                        help="also run the SystemML-S baseline")
    parser.add_argument("--optimize", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run the repro.planopt pass pipeline (CSE, "
                             "repartition coalescing, dead-step elimination, "
                             "loop-invariant hoisting, cellwise fusion) on "
                             "the plan")
    parser.add_argument("--batched-matmul", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="group same-shape dense block products into one "
                             "stacked BLAS dispatch (byte-identical)")
    parser.add_argument("--strassen", action="store_true",
                        help="use the Strassen kernel for large dense block "
                             "products (faster, not bitwise-stable)")
    parser.add_argument("--strassen-min-size", type=int, default=128,
                        help="dense-size crossover below which block products "
                             "stay on the naive BLAS kernel")
    _add_elastic_args(parser)


def _add_elastic_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--elastic", default=None, metavar="SPEC",
                        help="membership timeline: workers join and leave "
                             "between stages, e.g. "
                             "'join@2:count=2; leave@5:worker=0' "
                             "(kinds: join, leave; see repro.elastic.spec)")
    parser.add_argument("--elastic-seed", type=int, default=0,
                        help="seed of the timeline's rendezvous slot "
                             "assignment (same seed + timeline = "
                             "byte-identical runs)")


def _cluster_config(args: argparse.Namespace) -> ClusterConfig:
    """The cluster the flags describe (`serve` has no kernel flags)."""
    return ClusterConfig(
        num_workers=args.workers,
        threads_per_worker=args.threads,
        block_size=args.block_size,
        batched_matmul=getattr(args, "batched_matmul", True),
        strassen=getattr(args, "strassen", False),
        strassen_min_size=getattr(args, "strassen_min_size", 128),
        elastic=args.elastic,
        elastic_seed=args.elastic_seed,
    )


def _session(args: argparse.Namespace, trace: bool = False) -> DMacSession:
    return DMacSession(_cluster_config(args), optimize=args.optimize, trace=trace)


def _report(label: str, result, baseline=None) -> None:
    print(f"{label}: {result.comm_bytes / 1e6:.3f} MB communication, "
          f"{result.simulated_seconds:.3f} s simulated "
          f"({result.num_stages} stages, "
          f"peak {result.peak_memory_bytes / 1e6:.1f} MB/worker)")
    if baseline is not None:
        ratio = baseline.comm_bytes / max(result.comm_bytes, 1)
        print(f"SystemML-S baseline: {baseline.comm_bytes / 1e6:.3f} MB "
              f"({ratio:.1f}x DMac), {baseline.simulated_seconds:.3f} s simulated")


def _workload(args: argparse.Namespace):
    """Build (program, inputs, extra) for the registered app in args.app."""
    try:
        workload = build_workload(args.app, WorkloadParams.from_namespace(args))
    except ProgramError as exc:
        raise SystemExit(str(exc)) from exc
    return workload.program, workload.inputs, workload.extra


def _segment_plans(session: DMacSession, program, target: str | None = None):
    """Label/plan pairs, one per segment: one unlabelled pair for a
    straight-line program, the prologue and the loop body for a
    convergence loop.  With a ``target`` the labels are display titles."""
    labels = [label for label, __ in segments_of(program).programs]
    if target is not None:
        labels = [f"{target} [{label}]" if label else target for label in labels]
    return list(zip(labels, session.plans(program)))


def _segments_reconcile(result) -> bool:
    """Cross-check every segment's trace against the ledger and the clock;
    a mismatch is reported as one ``error:`` line, not a traceback."""
    from repro.errors import TraceReconciliationError
    from repro.trace import assert_reconciled

    try:
        for record in result.segments:
            assert_reconciled(record.result.tracing)
    except TraceReconciliationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    program, inputs, svd_names = _workload(args)
    if args.compare and segments_of(program).loop is not None:
        print("run --compare: the SystemML-S baseline cannot execute a "
              "staged convergence loop", file=sys.stderr)
        return EXIT_PARSE_ERROR
    tracing = getattr(args, "trace", False)
    with _session(args, trace=tracing) as session:
        timeline = bool(session.context.pool.events)
        if args.compare and timeline:
            print("run --compare: the SystemML-S baseline runs on a static "
                  "cluster; drop --elastic to compare", file=sys.stderr)
            return EXIT_PARSE_ERROR
        result = session.run(program, inputs)
    staged = result.loop is not None
    tracer = result.tracing  # the last segment's, for the reports below
    if tracing and not _segments_reconcile(result):
        return EXIT_LINT_ERRORS
    baseline = None
    if args.compare:
        with _session(args) as other:
            baseline = other.run_systemml(program, inputs)
        for name in result.matrices:
            np.testing.assert_allclose(
                result.matrices[name], baseline.matrices[name], atol=1e-7
            )
    if getattr(args, "format", "text") == "json":
        ledger = session.context.ledger
        report = {
            "app": args.app,
            "optimized": args.optimize,
            "comm_bytes": result.comm_bytes,
            "bytes_by_kind": ledger.bytes_by_kind(),
            "shuffle_links": {
                f"{src}->{dst}": nbytes
                for (src, dst), nbytes in sorted(ledger.bytes_by_link().items())
            },
            "simulated_seconds": result.simulated_seconds,
            "num_stages": result.num_stages,
            "peak_memory_bytes": result.peak_memory_bytes,
            "cache": result.cache,
        }
        if staged:
            report["staged"] = True
            report["segments"] = result.num_segments
        if timeline:
            report["elastic"] = result.elastic
        if baseline is not None:
            report["baseline_comm_bytes"] = baseline.comm_bytes
            report["baseline_simulated_seconds"] = baseline.simulated_seconds
        if tracing:
            from repro.trace import reconcile

            report["trace"] = {
                "reconciled": reconcile(tracer)["ok"],
                "metrics": tracer.metrics().to_json_dict(),
            }
        print(json.dumps(report, indent=2))
        return 0
    _report(f"DMac {args.app}", result, baseline)
    if timeline:
        summary = result.elastic
        print(f"elastic: {summary['initial_members']} -> "
              f"{summary['final_members']} members over {summary['slots']} "
              f"slots, {summary['worker_seconds']:.3f} worker-s "
              f"(fixed cluster: {summary['slot_seconds']:.3f}), "
              f"{summary['rebalance_bytes'] / 1e6:.3f} MB rebalanced")
        for event in summary["events"]:
            print(f"  {event}")
    if staged:
        print(result.describe())
    if svd_names is not None:
        values = singular_values(result.scalars, svd_names)
        print("top singular values:", np.array2string(values[:5], precision=3))
    if tracing:
        from repro.trace import format_summary

        print(format_summary(tracer))
    return 0


def _load_bound_array(path: str):
    """Load an input matrix from .npy, or from a repro matrix .npz (kept in
    the coordinate form the file stores)."""
    from repro.errors import ReproError
    from repro.matrix.io import read_matrix

    if path.endswith(".npy"):
        return np.load(path)
    try:
        return read_matrix(path)
    except ReproError as exc:
        raise SystemExit(f"{exc} (--bind takes a .npy or a repro matrix .npz)") from exc


def _cmd_script(args: argparse.Namespace) -> int:
    from repro.lang.dml import load_names, parse_program

    source = open(args.path, encoding="utf-8").read()
    program = parse_program(source)
    names = load_names(program)
    inputs = {}
    for binding in args.bind or []:
        name, __, path = binding.partition("=")
        if name not in names:
            raise SystemExit(
                f"--bind {name}: script has no load named {name!r} "
                f"(loads: {sorted(names)})"
            )
        inputs[names[name]] = _load_bound_array(path)
    with _session(args) as session:
        result = session.run(program, inputs)
    _report(f"DMac script {args.path}", result)
    for name in program.scalar_outputs:
        print(f"scalar {name} = {result.scalars[name]:.6g}")
    for name, array in result.matrices.items():
        print(f"matrix {name}: shape {array.shape}, "
              f"||.||_F = {np.linalg.norm(array):.6g}")
    return 0


def _resolve_plan_target(args: argparse.Namespace, target: str):
    """An app name or a ``.dml`` path -> its program (ProgramError on a
    script that fails to parse)."""
    if target in ALL_APPS:
        args.app = target
        program, __, ___ = _workload(args)
        return program
    if target.endswith(".dml") or os.path.sep in target or os.path.exists(target):
        from repro.lang.dml import parse_program

        try:
            with open(target, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise ProgramError(f"cannot read {target}: {exc}") from exc
        return parse_program(source)
    raise SystemExit(
        f"unknown target {target!r}: expected one of {', '.join(ALL_APPS)} "
        f"or a .dml script path"
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        program = _resolve_plan_target(args, args.app)
    except ProgramError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.show_rewrites:
        args.optimize = True  # rewrites only exist on optimized plans
    with _session(args) as session:
        plans = _segment_plans(session, program, args.app)
    if args.dot:
        for label, plan in plans:
            print(plan_to_dot(plan, title=f"DMac plan: {label}"))
    elif args.format == "json":
        tables = [
            CostModel(
                plan.program, session.config.num_workers, session.estimation_mode
            ).price(plan)
            for __, plan in plans
        ]
        documents = [
            {
                "target": label,
                "optimized": args.optimize,
                "predicted_bytes": plan.predicted_bytes,
                "predicted_flops": table.flops,
                "num_stages": plan.num_stages,
                "outputs": {k: str(v) for k, v in plan.outputs.items()},
                "cache_pins": [str(i) for i in plan.cache_pins],
                "rewrites": [
                    {"pass": r.pass_name, "description": r.description}
                    for r in plan.rewrites
                ],
                "steps": [
                    {"stage": step.stage, "communicates": step.communicates,
                     "comm_bytes": row.comm_bytes, "flops": row.flops,
                     "description": str(step)}
                    for step, row in zip(plan.steps, table.rows)
                ],
            }
            for (label, plan), table in zip(plans, tables)
        ]
        if len(documents) == 1:
            print(json.dumps(documents[0], indent=2))
        else:
            print(json.dumps(
                {"target": args.app, "staged": True, "segments": documents},
                indent=2,
            ))
    else:
        for label, plan in plans:
            print(f"# {label}")
            print(format_statistics(explain(
                plan, session.config.num_workers, session.estimation_mode
            )))
            print(plan.describe())
            if args.show_rewrites:
                print(f"\n# applied rewrites ({len(plan.rewrites)})")
                for rewrite in plan.rewrites:
                    print(rewrite.format_human())
                if plan.cache_pins:
                    print("# cache pins: " + ", ".join(map(str, plan.cache_pins)))
    return EXIT_OK


def _cmd_stages(args: argparse.Namespace) -> int:
    try:
        program = _resolve_plan_target(args, args.app)
    except ProgramError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    with _session(args) as session:
        graphs = [
            (label, session.stage_graph(plan.program, plan))
            for label, plan in _segment_plans(session, program, args.app)
        ]
    if args.format == "json":
        if len(graphs) == 1:
            print(json.dumps(
                {"target": args.app, **graphs[0][1].to_json_dict()}, indent=2
            ))
        else:
            print(json.dumps(
                {
                    "target": args.app,
                    "staged": True,
                    "segments": [
                        {"segment": label, **graph.to_json_dict()}
                        for label, graph in graphs
                    ],
                },
                indent=2,
            ))
    else:
        for label, graph in graphs:
            print(f"# {label}")
            print(graph.describe())
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintContext,
        format_selftest,
        lint_path,
        lint_plan,
        run_selftest,
    )

    if args.selftest:
        results = run_selftest()
        print(format_selftest(results))
        return EXIT_OK if all(r.passed for r in results) else EXIT_LINT_ERRORS
    if args.target is None:
        print("lint: a target (app name or script path) is required "
              "unless --selftest is given", file=sys.stderr)
        return EXIT_PARSE_ERROR
    with _session(args) as session:
        context = dataclasses.replace(
            LintContext.from_config(session.config),
            memory_limit_bytes=args.memory_limit,
        )
        suppress = tuple(args.suppress or ())
        try:
            if args.target in ALL_APPS:
                args.app = args.target
                program, __, ___ = _workload(args)
                reports = [
                    (label, lint_plan(plan, context, suppress))
                    for label, plan in _segment_plans(session, program)
                ]
            elif os.path.exists(args.target):
                reports = [(None, lint_path(args.target, context, suppress))]
            else:
                print(
                    f"unknown lint target {args.target!r}: expected one of "
                    f"{', '.join(ALL_APPS)} or an existing .dml/.py file",
                    file=sys.stderr,
                )
                return EXIT_PARSE_ERROR
        except ProgramError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        except ValueError as exc:  # e.g. unknown rule id in --suppress
            print(f"lint: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    if args.format == "json":
        if len(reports) == 1:
            print(reports[0][1].to_json_string())
        else:
            print(json.dumps(
                {
                    "target": args.target,
                    "staged": True,
                    "segments": [
                        {"segment": label,
                         "report": json.loads(report.to_json_string())}
                        for label, report in reports
                    ],
                },
                indent=2,
            ))
    else:
        for label, report in reports:
            if label is not None:
                print(f"# {args.target} [{label}]")
            print(report.format_human())
    failed = any(report.has_errors for __, report in reports)
    return EXIT_LINT_ERRORS if failed else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.errors import TranslationValidationError
    from repro.verify import verify_plan

    try:
        program = _resolve_plan_target(args, args.target)
    except ProgramError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    chaos = None
    if args.faults:
        from repro.errors import FaultSpecError
        from repro.faults import ChaosEngine, parse_fault_spec

        try:
            clauses = parse_fault_spec(args.faults)
        except FaultSpecError as exc:
            print(f"fault spec error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        chaos = ChaosEngine(args.seed, clauses)
        args.execute = True  # a fault spec only matters on a real run
    with _session(args) as session:
        print(f"verifying {args.target} on {args.workers} workers ...", file=sys.stderr)
        try:
            plans = _segment_plans(session, program, args.target)
        except TranslationValidationError as exc:
            print(f"translation validation failed: {exc}", file=sys.stderr)
            return EXIT_LINT_ERRORS
    reports = [
        (label, verify_plan(
            plan,
            num_workers=session.config.num_workers,
            threads_per_worker=args.threads,
            block_size=args.block_size,
            target=label,
        ))
        for label, plan in plans
    ]
    execution = None
    if args.execute:
        if args.target not in ALL_APPS:
            print("verify --execute: script targets have no bundled inputs; "
                  f"use one of {', '.join(ALL_APPS)}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        __, inputs, ___ = _workload(args)  # same seed -> same data
        with _session(args) as executing:
            result = executing.run(program, inputs, chaos=chaos)
        observed = result.peak_memory_bytes
        predicted = result.predicted_peak_memory_bytes
        execution = {
            "observed_peak_bytes": observed,
            "predicted_peak_bytes": predicted,
            "faults": args.faults,
            "sound": predicted is not None and observed <= predicted,
        }
        if result.loop is not None:
            execution["segments"] = result.num_segments
    if args.format == "json":
        if len(reports) == 1:
            document = reports[0][1].to_json_dict()
        else:
            document = {
                "target": args.target,
                "staged": True,
                "segments": [report.to_json_dict() for __, report in reports],
            }
        if execution is not None:
            document["execution"] = execution
        print(json.dumps(document, indent=2))
    else:
        for __, report in reports:
            print(report.format_human())
        if execution is not None:
            verdict = "within" if execution["sound"] else "EXCEEDS"
            print(f"[execute] observed per-worker peak "
                  f"{execution['observed_peak_bytes']} bytes {verdict} the "
                  f"static bound {execution['predicted_peak_bytes']}"
                  + (f" (faults: {args.faults})" if args.faults else ""))
    failed = any(report.has_errors for __, report in reports) or (
        execution is not None and not execution["sound"]
    )
    return EXIT_LINT_ERRORS if failed else EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.config import RecoveryConfig
    from repro.errors import FaultSpecError
    from repro.faults import (
        ChaosEngine,
        build_chaos_report,
        format_chaos_report,
        parse_fault_spec,
    )

    try:
        clauses = parse_fault_spec(args.faults)
    except FaultSpecError as exc:
        print(f"fault spec error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    program, inputs, __ = _workload(args)
    config = dataclasses.replace(
        _cluster_config(args),
        recovery=RecoveryConfig(
            max_stage_attempts=args.retries,
            checkpoint_every=args.checkpoint_every,
            speculation_multiplier=args.speculation,
        ),
    )
    # Two fresh sessions: the clean reference and the faulted run share
    # nothing but the program, the inputs and the config.
    with DMacSession(config, optimize=args.optimize) as session:
        clean = session.run(program, inputs)
    engine = ChaosEngine(args.seed, clauses)
    with DMacSession(config, optimize=args.optimize) as session:
        faulted = session.run(program, inputs, chaos=engine)
    results_match = set(clean.matrices) == set(faulted.matrices) and all(
        np.allclose(clean.matrices[name], faulted.matrices[name], atol=1e-9)
        for name in clean.matrices
    )
    report = build_chaos_report(
        args.app, args.seed, args.faults, clean, faulted, results_match
    )
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(format_chaos_report(report))
    return EXIT_OK if results_match else EXIT_LINT_ERRORS


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import (
        format_summary,
        to_chrome_trace,
        to_json_dict,
    )

    chaos = None
    if args.faults:
        from repro.errors import FaultSpecError
        from repro.faults import ChaosEngine, parse_fault_spec

        try:
            clauses = parse_fault_spec(args.faults)
        except FaultSpecError as exc:
            print(f"fault spec error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        chaos = ChaosEngine(args.seed, clauses)
    program, inputs, __ = _workload(args)
    with _session(args, trace=True) as session:  # one collector per segment
        print(f"tracing {args.app} on {args.workers} workers ...", file=sys.stderr)
        # The cross-check: trace-summed bytes/seconds must reconcile exactly
        # with the CommunicationLedger and the SimulatedClock.
        result = session.run(program, inputs, chaos=chaos)
    if not _segments_reconcile(result):
        return EXIT_LINT_ERRORS
    print("trace reconciled against ledger and clock"
          + (f" on {len(result.segments)} segment(s); exporting the final one"
             if result.loop is not None else ""),
          file=sys.stderr)
    tracer = result.tracing
    if args.format == "chrome":
        payload = to_chrome_trace(tracer)
    elif args.format == "json":
        payload = json.dumps(to_json_dict(tracer), indent=2, sort_keys=True)
    else:
        payload = format_summary(tracer)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(payload)
    return EXIT_OK


def _parse_tenant_flag(text: str):
    """``name[:weight]`` -> TenantSpec (the CLI's minimal tenant syntax;
    quotas and queue caps come from batch scripts)."""
    from repro.serve import TenantSpec

    name, _, weight = text.partition(":")
    return TenantSpec(name, weight=float(weight) if weight else 1.0)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.serve import (
        MatrixService,
        ServiceConfig,
        parse_batch,
        render_report,
    )

    specs = []
    if args.script:
        try:
            with open(args.script, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"serve: cannot read script {args.script}: {exc}",
                  file=sys.stderr)
            return EXIT_PARSE_ERROR
        if args.seed is not None:
            data["seed"] = args.seed
        try:
            config, specs = parse_batch(data)
        except ReproError as exc:
            print(f"serve: bad batch script: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    else:
        if not args.tenant:
            print("serve: give --script batch.json and/or at least one "
                  "--tenant name[:weight]", file=sys.stderr)
            return EXIT_PARSE_ERROR
        try:
            config = ServiceConfig(
                tenants=tuple(_parse_tenant_flag(t) for t in args.tenant),
                cluster=_cluster_config(args),
                plan_cache_entries=args.cache_entries,
                optimize=args.optimize,
                seed=args.seed if args.seed is not None else 0,
            )
        except (ReproError, ValueError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    service = MatrixService(config)
    try:
        for spec in specs:
            service.submit(spec)
        service.drain()
    except ReproError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.socket:
        from repro.serve.daemon import serve_forever

        print(f"repro serve: listening on {args.socket} "
              f"({len(config.tenants)} tenant(s))", file=sys.stderr)
        serve_forever(service, args.socket)  # closes the service on its way out
        print("repro serve: shut down", file=sys.stderr)
        return EXIT_OK
    service.close()
    text = render_report(service.report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    failed = any(record.state == "failed" for record in service.records)
    return EXIT_LINT_ERRORS if failed else EXIT_OK


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import AdmissionError, ServiceError
    from repro.serve import RemoteClient

    client = RemoteClient(args.socket, timeout=args.timeout)
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"submit: --params is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    exit_code = EXIT_OK
    try:
        if args.app:
            if not args.tenant:
                print("submit: --tenant is required to submit a job",
                      file=sys.stderr)
                return EXIT_PARSE_ERROR
            try:
                job = client.submit(
                    args.tenant, args.app,
                    params=params, priority=args.priority, label=args.label,
                )
                print(json.dumps(job, indent=2, sort_keys=True))
            except AdmissionError as exc:
                print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
                exit_code = EXIT_LINT_ERRORS
        if args.drain:
            finished = client.drain()
            print(f"drained {len(finished)} job(s)", file=sys.stderr)
        if args.report:
            from repro.serve import render_report

            sys.stdout.write(render_report(client.report()))
        if args.shutdown:
            client.shutdown()
    except (ServiceError, OSError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    return exit_code


def _add_app_args(parser: argparse.ArgumentParser, positional: bool = True) -> None:
    if positional:
        parser.add_argument("app", choices=list(ALL_APPS))
    parser.add_argument("--scale", type=float, default=3e-3,
                        help="dataset scale factor (gnmf/pagerank/cf/svd)")
    parser.add_argument("--graph", choices=sorted(PAPER_GRAPHS), default="soc-pokec",
                        help="graph surrogate for pagerank")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--factors", type=int, default=16, help="GNMF rank")
    parser.add_argument("--rank", type=int, default=10, help="SVD rank")
    parser.add_argument("--rows", type=int, default=2000,
                        help="examples / matrix dimension "
                             "(linreg/logreg/jacobi/ridge/powiter)")
    parser.add_argument("--features", type=int, default=80,
                        help="regression features (linreg/logreg/ridge)")
    parser.add_argument("--sparsity", type=float, default=0.1,
                        help="design-matrix sparsity (linreg/logreg/ridge)")
    parser.add_argument("--eps", type=float, default=1e-3,
                        help="powiter convergence threshold "
                             "(stop when ||Ax - lambda x|| < eps)")
    parser.add_argument("--ridge", type=float, default=1e-3,
                        help="L2 regulariser weight for the ridge app")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DMac reproduction: dependency-aware distributed matrix computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an application on the simulated cluster")
    _add_app_args(run)
    _add_cluster_args(run)
    run.add_argument("--format", choices=["text", "json"], default="text",
                     help="report format (default: text); json includes "
                          "per-link shuffle traffic and cache statistics")
    run.add_argument("--trace", action="store_true",
                     help="record a structured trace of the run, reconcile "
                          "it against the ledger/clock, and append a "
                          "timeline (text) or trace metrics (json)")
    run.set_defaults(func=_cmd_run)

    plan = sub.add_parser("plan", help="print the DMac plan for an application")
    plan.add_argument("app", metavar="app|script.dml",
                      help=f"one of {', '.join(ALL_APPS)}, or a .dml script path")
    _add_app_args(plan, positional=False)
    _add_cluster_args(plan)
    plan.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    plan.add_argument("--format", choices=["text", "json"], default="text",
                      help="report format (default: text)")
    plan.add_argument("--show-rewrites", action="store_true",
                      help="optimize the plan and list the applied "
                           "repro.planopt rewrites")
    plan.set_defaults(func=_cmd_plan)

    stages = sub.add_parser(
        "stages", help="print the runtime's stage graph for an application"
    )
    stages.add_argument("app", metavar="app|script.dml",
                        help=f"one of {', '.join(ALL_APPS)}, or a .dml script path")
    _add_app_args(stages, positional=False)
    _add_cluster_args(stages)
    stages.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    stages.set_defaults(func=_cmd_stages)

    lint = sub.add_parser(
        "lint", help="statically analyse a program's plan without executing it"
    )
    lint.add_argument("target", nargs="?", metavar="app|script.dml|builder.py",
                      help=f"one of {', '.join(ALL_APPS)}, or a .dml/.py file")
    _add_app_args(lint, positional=False)
    _add_cluster_args(lint)
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="report format (default: text)")
    lint.add_argument("--memory-limit", type=int, default=None,
                      help="per-worker memory budget in bytes (enables DM106)")
    lint.add_argument("--suppress", action="append", metavar="RULE",
                      help="suppress a rule id (repeatable), e.g. DM202")
    lint.add_argument("--selftest", action="store_true",
                      help="corrupt a reference plan once per rule and "
                           "verify each rule fires")
    lint.set_defaults(func=_cmd_lint)

    verify = sub.add_parser(
        "verify",
        help="statically verify a plan: optimizer rewrite certificates, "
             "ordering hazards, and a sound per-worker peak-memory bound",
    )
    verify.add_argument("target", metavar="app|script.dml",
                        help=f"one of {', '.join(ALL_APPS)}, or a .dml script path")
    _add_app_args(verify, positional=False)
    _add_cluster_args(verify)
    verify.set_defaults(optimize=True)  # certificates exist on optimized plans
    verify.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    verify.add_argument("--execute", action="store_true",
                        help="also run the application and cross-check the "
                             "observed per-worker peak against the static bound")
    verify.add_argument("--faults", default=None,
                        help="fault spec (see `repro chaos`) for the --execute "
                             "cross-check run; implies --execute")
    verify.set_defaults(func=_cmd_verify)

    chaos = sub.add_parser(
        "chaos",
        help="run an application clean and faulted, report recovery overhead",
    )
    _add_app_args(chaos)
    _add_cluster_args(chaos)
    chaos.add_argument(
        "--faults", required=True,
        help="fault spec, e.g. 'crash:stage=2;flaky:at=shuffle,p=0.5' "
             "(kinds: crash, lostblock, flaky, straggler; see repro.faults.spec)",
    )
    chaos.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (default: text)")
    chaos.add_argument("--retries", type=int, default=3,
                       help="max attempts per stage island (default: 3)")
    chaos.add_argument("--checkpoint-every", type=int, default=0,
                       help="checkpoint loop-carried instances every k "
                            "iterations (0 = off)")
    chaos.add_argument("--speculation", type=float, default=0.0,
                       help="launch a speculative copy of a straggler at N x "
                            "the median sibling duration (0 = off)")
    chaos.set_defaults(func=_cmd_chaos)

    trace = sub.add_parser(
        "trace",
        help="run an application with structured tracing and export the "
             "trace (Chrome/Perfetto JSON, raw JSON, or a terminal timeline)",
    )
    _add_app_args(trace)
    _add_cluster_args(trace)
    trace.add_argument("--format", choices=["json", "chrome", "summary"],
                       default="summary",
                       help="export format (default: summary); chrome emits "
                            "Chrome trace-event JSON loadable in Perfetto")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write the export to FILE instead of stdout")
    trace.add_argument("--faults", default=None,
                       help="optional fault spec (see `repro chaos`); the "
                            "traced run then executes under a seeded "
                            "ChaosEngine and records fault/recovery events")
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant matrix service: execute a batch script "
             "and print its deterministic report, and/or listen on a unix "
             "socket for repro submit",
    )
    serve.add_argument("--script", default=None, metavar="BATCH.json",
                       help="batch script (tenants + jobs, see repro.serve.batch)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="after the script (if any), serve the newline-JSON "
                            "protocol on this unix socket until shutdown")
    serve.add_argument("--tenant", action="append", metavar="NAME[:WEIGHT]",
                       help="declare a tenant (repeatable; scriptless mode)")
    serve.add_argument("--seed", type=int, default=None,
                       help="service seed (overrides the script's)")
    serve.add_argument("--cache-entries", type=int, default=128,
                       help="plan cache capacity; 0 disables the cache")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="write the report to FILE instead of stdout")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--threads", type=int, default=4)
    serve.add_argument("--block-size", type=int, default=None)
    _add_elastic_args(serve)
    serve.add_argument("--optimize", action=argparse.BooleanOptionalAction,
                       default=False)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a job to (and control) a running repro serve daemon",
    )
    submit.add_argument("app", nargs="?", choices=list(ALL_APPS),
                        help="registry application to submit")
    submit.add_argument("--socket", required=True, metavar="PATH",
                        help="unix socket of the repro serve daemon")
    submit.add_argument("--tenant", default=None, help="submitting tenant")
    submit.add_argument("--params", default=None, metavar="JSON",
                        help='workload params, e.g. \'{"scale": 1e-3}\'')
    submit.add_argument("--priority", type=int, default=0,
                        help="within-tenant priority (higher first)")
    submit.add_argument("--label", default=None, help="display label")
    submit.add_argument("--drain", action="store_true",
                        help="run all queued jobs after submitting")
    submit.add_argument("--report", action="store_true",
                        help="print the service report")
    submit.add_argument("--shutdown", action="store_true",
                        help="stop the daemon")
    submit.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout in seconds")
    submit.set_defaults(func=_cmd_submit)

    script = sub.add_parser("script", help="run a DML-style script file")
    script.add_argument("path", help="script file (see repro.lang.dml)")
    script.add_argument("--bind", action="append", metavar="NAME=FILE",
                        help="bind a script load() to a .npy / repro .npz file")
    _add_cluster_args(script)
    script.set_defaults(func=_cmd_script)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
