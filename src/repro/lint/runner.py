"""Entry points: lint a program, a plan, a ``.dml`` script, or a ``.py``
program builder -- without executing anything.

``lint_plan`` is the workhorse: it gathers the plan's facts -- shapes, def-use
and stages, sizes; each from the one function that derives it -- into a
:class:`~repro.lint.rules.LintInput` and applies every registered rule.
``lint_program`` runs the (smaller) set of program-level checks when no
plan exists yet.  ``lint_path`` dispatches on file type for the CLI, using
:func:`capture_plans` to observe the plans a ``.py`` builder script
generates through :class:`~repro.session.DMacSession` without running the
executor.
"""

from __future__ import annotations

import contextlib
import dataclasses
import runpy
import sys
from typing import Iterator

from repro.core.cost import CostModel
from repro.core.plan import Plan
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lang.program import MatrixProgram
from repro.lint.diagnostics import Diagnostic, LintContext, LintReport, Severity
from repro.lint.rules import RULES, LintInput
from repro.runtime.graph import StageGraph
from repro.verify.analysis import solve_shapes
from repro.verify.lattice import TOP


def _apply_rules(inputs: LintInput, suppress: tuple[str, ...]) -> LintReport:
    report = LintReport(suppressed=tuple(suppress))
    unknown = set(suppress) - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule id(s) in suppress: {sorted(unknown)}")
    for rule in RULES.values():
        if rule.id in suppress:
            continue
        report.extend(rule.check(inputs))
    return report


def lint_program(
    program: MatrixProgram,
    context: LintContext | None = None,
    suppress: tuple[str, ...] = (),
) -> LintReport:
    """Run the program-level rules over an AST (no plan required)."""
    inputs = LintInput(program=program, context=context or LintContext())
    return _apply_rules(inputs, suppress)


def lint_plan(
    plan: Plan,
    context: LintContext | None = None,
    suppress: tuple[str, ...] = (),
    *,
    graph: StageGraph | None = None,
) -> LintReport:
    """Run every rule over a generated plan (and its program).

    An unscheduled plan (``num_stages == 0``) is stage-scheduled first so
    the Section-5.2 purity rule has stages to check; already-scheduled
    plans are analysed exactly as given.  Every fact is built here from
    the steps as they are; only ``graph`` may be handed in (built once if not).
    """
    if plan.num_stages == 0:
        plan = schedule_stages(plan)
    context = context or LintContext()
    inputs = LintInput(
        plan.program,
        context,
        plan,
        graph=graph or StageGraph.from_plan(plan),
        shapes={
            instance: shape
            for instance, shape in solve_shapes(plan).values.items()
            if shape is not TOP
        },
        cost=CostModel(plan.program, context.num_workers, context.estimation_mode),
    )
    return _apply_rules(inputs, suppress)


def plan_for(
    program: MatrixProgram, context: LintContext | None = None
) -> Plan:
    """Generate the stage-scheduled DMac plan the CLI lints by default."""
    context = context or LintContext()
    planner = DMacPlanner(
        program,
        context.num_workers,
        estimation_mode=context.estimation_mode,
    )
    return schedule_stages(planner.plan())


def lint_dml_source(
    source: str,
    context: LintContext | None = None,
    suppress: tuple[str, ...] = (),
) -> LintReport:
    """Parse DML, plan it, and lint both program and plan."""
    from repro.lang.dml import parse_program

    program = parse_program(source)
    return lint_plan(plan_for(program, context), context, suppress)


@contextlib.contextmanager
def capture_plans(
    captured: list[tuple[Plan, LintContext]],
) -> Iterator[list[tuple[Plan, LintContext]]]:
    """Observe every plan a :class:`DMacSession` generates in this scope.

    The session's ``plan`` method still returns real plans (so builder
    scripts that go on to execute keep working), but each one is recorded
    -- together with a lint context matching the *generating session's*
    configuration, so a script that plans at several worker counts is
    checked against the right cost model each time.  Used to lint ``.py``
    example scripts without trusting them to expose their programs.
    """
    from repro import session as session_module

    original = session_module.DMacSession.plan

    def observing_plan(self, program):
        plan = original(self, program)
        captured.append(
            (plan, LintContext.from_config(self.config, self.estimation_mode))
        )
        return plan

    session_module.DMacSession.plan = observing_plan
    try:
        yield captured
    finally:
        session_module.DMacSession.plan = original


def lint_python_file(
    path: str,
    context: LintContext | None = None,
    suppress: tuple[str, ...] = (),
) -> LintReport:
    """Execute a ``.py`` program-builder script (as ``__main__``, so its
    guarded entry point runs) and lint every plan it creates through a
    session; falls back to a module-level ``PROGRAM`` / ``build_program()``
    convention if the script never plans.

    Captured plans are linted under their own session's configuration;
    ``context`` only contributes its resource-budget knobs (block size,
    memory limit) as overrides when set.
    """
    captured: list[tuple[Plan, LintContext]] = []
    original_argv = sys.argv
    sys.argv = [path]  # scripts may parse argv; hide the lint CLI's
    try:
        with capture_plans(captured):
            namespace = runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = original_argv
    report = LintReport(suppressed=tuple(suppress))
    if captured:
        for plan, plan_context in captured:
            merged = _merge_budgets(plan_context, context)
            report.extend(lint_plan(plan, merged, suppress))
        return report
    program = namespace.get("PROGRAM")
    if program is None and callable(namespace.get("build_program")):
        program = namespace["build_program"]()
    if isinstance(program, MatrixProgram):
        return lint_plan(plan_for(program, context), context, suppress)
    report.extend(
        [
            Diagnostic(
                rule="DM000",
                severity=Severity.WARNING,
                message=f"{path} never planned a program through DMacSession "
                "and exposes no PROGRAM/build_program(): nothing to lint",
                hint="plan a program via DMacSession, or export PROGRAM",
            )
        ]
    )
    return report


def _merge_budgets(
    plan_context: LintContext, overrides: LintContext | None
) -> LintContext:
    """The generating session's context, with the caller's resource-budget
    knobs (when set) layered on top."""
    if overrides is None:
        return plan_context
    return dataclasses.replace(
        plan_context,
        block_size=(
            overrides.block_size
            if overrides.block_size is not None
            else plan_context.block_size
        ),
        memory_limit_bytes=(
            overrides.memory_limit_bytes
            if overrides.memory_limit_bytes is not None
            else plan_context.memory_limit_bytes
        ),
    )


def lint_path(
    path: str,
    context: LintContext | None = None,
    suppress: tuple[str, ...] = (),
) -> LintReport:
    """Lint a ``.dml`` script or ``.py`` builder file by extension."""
    if path.endswith(".py"):
        return lint_python_file(path, context, suppress)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_dml_source(source, context, suppress)
