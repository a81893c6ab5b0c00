"""The analyzer's self-test: deliberately corrupted plans, one per rule.

Static analyzers rot silently -- a rule that never fires looks identical
to a rule that works.  This module regenerates a clean reference plan (a
GNMF update step, the paper's running example), applies one surgical
corruption per rule (mutated strategy, injected wide edge, retargeted
output, duplicated broadcast, ...), and asserts that linting the corrupted
plan reports **exactly** the expected rule -- no more, no less.  The clean
plan must lint with zero findings first.

Each corruption is designed to perturb only the property its rule checks:
for example, the duplicated-broadcast corruption also bumps
``predicted_bytes`` by the broadcast's cost so the ledger-agreement rule
(DM104) stays silent, and the shape corruption transposes a declared
dimension pair (preserving the byte product) so no size-based rule reacts.

Run it via ``python -m repro lint --selftest`` or the test suite.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.defuse import DefUse
from repro.core.estimator import SizeEstimator
from repro.core.plan import (
    ExtendedStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    SourceStep,
)
from repro.lang.program import MatMulOp, MatrixProgram, ProgramBuilder
from repro.lint.diagnostics import LintContext, LintReport
from repro.lint.rules import RULES
from repro.lint.runner import lint_plan, plan_for
from repro.matrix.schemes import Scheme
from repro.runtime.graph import StageGraph


@dataclasses.dataclass
class Corruption:
    """One deliberate plan defect and the rule that must catch it."""

    name: str
    rule: str
    apply: Callable[[Plan, LintContext], tuple[Plan, LintContext]]


@dataclasses.dataclass
class SelftestResult:
    corruption: str
    expected_rule: str
    fired_rules: tuple[str, ...]
    passed: bool
    report: LintReport


def reference_program() -> MatrixProgram:
    """One GNMF multiplicative-update step (the paper's running example)."""
    pb = ProgramBuilder()
    V = pb.load("V", (600, 400), sparsity=0.05)
    W = pb.random("W", (600, 10))
    H = pb.random("H", (10, 400))
    H = pb.assign("H", H * (W.T @ V) / (W.T @ W @ H))
    W = pb.assign("W", W * (V @ H.T) / (W @ H @ H.T))
    pb.output(W)
    pb.output(H)
    return pb.build()


# ---------------------------------------------------------------------------
# Search helpers (corruptions locate their victim step in the fresh plan)
# ---------------------------------------------------------------------------


def _find_step(plan: Plan, predicate) -> int:
    for index, step in enumerate(plan.steps):
        if predicate(step):
            return index
    raise AssertionError("selftest reference plan lacks the expected step")


def _nbytes(program: MatrixProgram, name: str) -> int:
    """Worst-case ``|A|``, as the default lint context sizes it."""
    return SizeEstimator(program).nbytes(name)


# ---------------------------------------------------------------------------
# Corruptions, one per rule
# ---------------------------------------------------------------------------


def _corrupt_shape(plan: Plan, context: LintContext):
    """Transpose one matrix's declared dimensions.  The byte product is
    unchanged, so only the shape interpretation disagrees.  (Square
    matrices are immune; row-aggregation operands are skipped because
    their worst-case sparsity estimate -- and hence the ledger -- depends
    on the reduced dimension.)"""
    from repro.lang.program import RowAggOp

    rowagg_operands = {
        op.operand.name
        for op in plan.program.ops
        if isinstance(op, RowAggOp)
    }
    for name, (rows, cols) in plan.program.dims.items():
        if rows != cols and name not in rowagg_operands:
            plan.program.dims[name] = (cols, rows)
            return plan, context
    raise AssertionError("no non-square, non-rowagg matrix to corrupt")


def _corrupt_scheme(plan: Plan, context: LintContext):
    """Swap a matmul's strategy for one with different scheme constraints.
    Both rmm variants are communication-free, so the ledger is unmoved."""
    index = _find_step(
        plan,
        lambda s: isinstance(s, MatMulStep) and s.strategy in ("rmm1", "rmm2"),
    )
    step = plan.steps[index]
    step.strategy = "rmm2" if step.strategy == "rmm1" else "rmm1"
    return plan, context


def _corrupt_stage(plan: Plan, context: LintContext):
    """Pull a consumer of a communicated instance down into the stage that
    sends it: a wide edge inside a stage."""
    consumers = DefUse.of(plan).consumers
    for step in plan.steps:
        if not step.communicates:
            continue
        for consumer in consumers.get(step.output_instance(), ()):
            if plan.steps[consumer].stage > step.stage:
                plan.steps[consumer].stage = step.stage
                return plan, context
    raise AssertionError("no communicating edge with a later consumer")


def _corrupt_ledger(plan: Plan, context: LintContext):
    """Nudge the declared communication total off its decomposition."""
    plan.predicted_bytes += 12345
    return plan, context


def _corrupt_block_size(plan: Plan, context: LintContext):
    """Configure a block size far beyond the Equation-3 bound."""
    return plan, dataclasses.replace(context, block_size=10**6)


def _corrupt_memory_budget(plan: Plan, context: LintContext):
    """Declare a per-worker budget every replica in the plan exceeds."""
    if not any(
        instance.scheme is Scheme.BROADCAST for instance in DefUse.of(plan).producers
    ):
        raise AssertionError("plan holds no replicas to starve")
    return plan, dataclasses.replace(context, memory_limit_bytes=1)


def _corrupt_output(plan: Plan, context: LintContext):
    """Retarget a program output at an instance no step ever produces."""
    name = plan.program.outputs[0]
    ghost = MatrixInstance(name, False, Scheme.BROADCAST)
    assert ghost not in DefUse.of(plan).producers
    plan.outputs[name] = ghost
    return plan, context


def _corrupt_redundant_partition(plan: Plan, context: LintContext):
    """Insert a partition of an instance to its current scheme (and pay
    for it in the ledger, so only the waste is reportable).  The victim
    must already have a consumer: repartitioning a *dead* instance would
    give it one and thereby silence a legitimate DM202 baseline finding."""
    graph = StageGraph.from_plan(plan)
    index = _find_step(
        plan,
        lambda s: (
            (out := s.output_instance()) is not None
            and out.scheme.is_one_dimensional
            and out in graph.defuse.consumers
        ),
    )
    victim = plan.steps[index].output_instance()
    redundant = ExtendedStep("partition", victim, victim)
    redundant.stage = graph.available_stage[victim]
    plan.steps.insert(index + 1, redundant)
    plan.predicted_bytes += _nbytes(plan.program, victim.name)
    return plan, context


def _corrupt_dead_operator(plan: Plan, context: LintContext):
    """Append a transpose whose result nothing consumes."""
    producer = DefUse.of(plan).producers
    for instance in producer:
        if instance.name in plan.program.outputs:
            continue
        if not instance.scheme.is_one_dimensional:
            continue
        twin = MatrixInstance(
            instance.name, not instance.transposed, instance.scheme.opposite
        )
        if twin in producer:
            continue
        dead = ExtendedStep("transpose", instance, twin)
        dead.stage = plan.num_stages
        plan.steps.append(dead)
        return plan, context
    raise AssertionError("no instance suitable for a dead transpose")


def _corrupt_transpose_pair(plan: Plan, context: LintContext):
    """Append a transpose and its inverse: the pair round-trips."""
    defuse = DefUse.of(plan)
    producer = defuse.producers
    for instance in producer:
        if not instance.scheme.is_one_dimensional:
            continue
        if instance not in defuse.consumers:
            continue
        twin = MatrixInstance(
            instance.name, not instance.transposed, instance.scheme.opposite
        )
        if twin in producer:
            continue
        first = ExtendedStep("transpose", instance, twin)
        second = ExtendedStep("transpose", twin, instance)
        first.stage = second.stage = plan.num_stages
        plan.steps.extend([first, second])
        return plan, context
    raise AssertionError("no instance suitable for a transpose round-trip")


def _corrupt_cpmm_choice(plan: Plan, context: LintContext):
    """Replace the plan outright: a tall-thin x short-wide product where
    CPMM's output shuffle (K x |C|) dwarfs replicating an operand."""
    pb = ProgramBuilder()
    A = pb.random("A", (1000, 4))
    B = pb.random("B", (4, 1000))
    C = pb.assign("C", A @ B)
    pb.output(C)
    program = pb.build()
    a_name = program.bindings["A"]
    b_name = program.bindings["B"]
    c_name = program.bindings["C"]
    matmul = next(op for op in program.ops if isinstance(op, MatMulOp))
    a = MatrixInstance(a_name, False, Scheme.COL)
    b = MatrixInstance(b_name, False, Scheme.ROW)
    c = MatrixInstance(c_name, False, Scheme.ROW)
    steps = [
        SourceStep(next(o for o in program.ops if o.output == a_name), a),
        SourceStep(next(o for o in program.ops if o.output == b_name), b),
        MatMulStep(matmul, "cpmm", a, b, c),
    ]
    bad = Plan(
        program=program,
        steps=steps,
        outputs={c_name: c},
        predicted_bytes=(context.num_workers - 1) * _nbytes(program, c_name),
    )
    return bad, context


def _corrupt_rebroadcast(plan: Plan, context: LintContext):
    """Duplicate an existing broadcast step (paying its ledger cost): the
    same matrix version is replicated twice."""
    index = _find_step(
        plan, lambda s: isinstance(s, ExtendedStep) and s.kind == "broadcast"
    )
    victim = plan.steps[index]
    duplicate = ExtendedStep("broadcast", victim.source, victim.target)
    duplicate.stage = victim.stage
    plan.steps.insert(index + 1, duplicate)
    plan.predicted_bytes += (context.num_workers - 1) * _nbytes(
        plan.program, victim.source.name
    )
    return plan, context


def _corrupt_cache_pins(plan: Plan, context: LintContext):
    """Pin every replica in the plan and declare a budget sized to the
    largest single replica: each replica fits on its own (DM106 silent,
    which requires strictly-over), but the pinned set as a whole cannot."""
    produced = DefUse.of(plan).producers
    replicas = sorted((i for i in produced if i.scheme is Scheme.BROADCAST), key=str)
    if len(replicas) < 2:
        raise AssertionError("need >= 2 replicas for an overweight pin set")
    plan.cache_pins = tuple(replicas)
    budget = max(_nbytes(plan.program, i.name) for i in replicas)
    return plan, dataclasses.replace(context, memory_limit_bytes=budget)


def _corrupt_scalar_order(plan: Plan, context: LintContext):
    """Replace the plan outright: a driver scalar's producing aggregate is
    moved *after* its consumer, dropping the ordering edge the stage graph
    would otherwise guarantee (the PR-5 bug class: a pool thread reads
    state before its producer's publish is visible).  Stages are left
    untouched, so the stage-purity rule (which only watches matrix
    availability) stays silent; the dataflow rule ignores scalars too."""
    pb = ProgramBuilder()
    A = pb.random("A", (24, 24))
    s = pb.scalar("s", A.sum())
    pb.output(pb.assign("B", A * s))
    bad = plan_for(pb.build(), context)
    aggregate = _find_step(bad, lambda s: s.scalar_output() is not None)
    scalar_name = bad.steps[aggregate].scalar_output()
    consumer = _find_step(bad, lambda s: scalar_name in s.scalar_inputs())
    assert aggregate < consumer, "planner must order the aggregate first"
    step = bad.steps.pop(aggregate)
    bad.steps.insert(consumer, step)  # lands just after the (shifted) consumer
    return bad, context


def _corrupt_conflicting_publish(plan: Plan, context: LintContext):
    """Replace the plan outright: two cell-wise steps publish *different*
    symbolic values (add vs subtract of the same operands) for one logical
    matrix.  All steps share one stage and one scheme, nothing
    communicates, and the loser of the publish race determines the
    result -- exactly the DM302 defect, invisible to every other rule."""
    from repro.core.plan import CellwiseStep
    from repro.lang.program import CellwiseOp

    pb = ProgramBuilder()
    A = pb.random("A", (8, 8))
    B = pb.random("B", (8, 8))
    pb.output(pb.assign("C", A + B))
    program = pb.build()
    a_name = program.bindings["A"]
    b_name = program.bindings["B"]
    c_name = program.bindings["C"]
    cellwise = next(op for op in program.ops if isinstance(op, CellwiseOp))
    a = MatrixInstance(a_name, False, Scheme.ROW)
    b = MatrixInstance(b_name, False, Scheme.ROW)
    c = MatrixInstance(c_name, False, Scheme.ROW)
    conflicting = dataclasses.replace(cellwise, op="subtract")
    steps = [
        SourceStep(next(o for o in program.ops if o.output == a_name), a),
        SourceStep(next(o for o in program.ops if o.output == b_name), b),
        CellwiseStep(cellwise, a, b, c),
        CellwiseStep(conflicting, a, b, c),
    ]
    bad = Plan(program=program, steps=steps, outputs={c_name: c}, predicted_bytes=0)
    return bad, context


def _corrupt_unfused_chain(plan: Plan, context: LintContext):
    """Replace the plan outright: a two-rung cellwise ladder whose
    intermediate is needlessly published as a program output, so the
    optimizer's fusion pass must leave the chain unfused.  The plan is
    genuinely optimized -- it carries the pipeline's certificates, the
    fusion evidence DM401 gates on -- and the needless publish is the
    defect."""
    from repro.planopt.pipeline import optimize_plan

    pb = ProgramBuilder()
    A = pb.random("A", (16, 16))
    B = pb.random("B", (16, 16))
    C = pb.assign("C", A * B)
    pb.output(C)  # the needless publish that blocks fusion
    pb.output(pb.assign("D", C / B))
    bad = optimize_plan(
        plan_for(pb.build(), context),
        num_workers=context.num_workers,
        estimation_mode=context.estimation_mode,
    )
    return bad, context


CORRUPTIONS: tuple[Corruption, ...] = (
    Corruption("transposed declared dimensions", "DM101", _corrupt_shape),
    Corruption("mutated matmul strategy", "DM102", _corrupt_scheme),
    Corruption("injected wide edge", "DM103", _corrupt_stage),
    Corruption("forged communication total", "DM104", _corrupt_ledger),
    Corruption("oversized block size", "DM105", _corrupt_block_size),
    Corruption("starved memory budget", "DM106", _corrupt_memory_budget),
    Corruption("ghost output instance", "DM107", _corrupt_output),
    Corruption("redundant repartition", "DM201", _corrupt_redundant_partition),
    Corruption("dead transpose", "DM202", _corrupt_dead_operator),
    Corruption("transpose round-trip", "DM203", _corrupt_transpose_pair),
    Corruption("cpmm on a tall-thin product", "DM204", _corrupt_cpmm_choice),
    Corruption("duplicated broadcast", "DM205", _corrupt_rebroadcast),
    Corruption("overweight cache pin set", "DM206", _corrupt_cache_pins),
    Corruption("reordered scalar producer", "DM301", _corrupt_scalar_order),
    Corruption("conflicting double publish", "DM302", _corrupt_conflicting_publish),
    Corruption("needlessly published intermediate", "DM401", _corrupt_unfused_chain),
)

assert {c.rule for c in CORRUPTIONS} == set(RULES), "every rule needs a corruption"


def run_selftest(context: LintContext | None = None) -> list[SelftestResult]:
    """Corrupt a fresh reference plan once per rule; each lint must report
    exactly the expected rule.  The first entry is the clean baseline."""
    context = context or LintContext()
    results = []

    clean_report = lint_plan(reference_program_plan(context), context)
    results.append(
        SelftestResult(
            corruption="(clean reference plan)",
            expected_rule="-",
            fired_rules=tuple(sorted(clean_report.rule_ids())),
            passed=len(clean_report) == 0,
            report=clean_report,
        )
    )

    for corruption in CORRUPTIONS:
        plan = reference_program_plan(context)
        bad_plan, bad_context = corruption.apply(plan, context)
        report = lint_plan(bad_plan, bad_context)
        fired = report.rule_ids()
        results.append(
            SelftestResult(
                corruption=corruption.name,
                expected_rule=corruption.rule,
                fired_rules=tuple(sorted(fired)),
                passed=fired == {corruption.rule},
                report=report,
            )
        )
    return results


def reference_program_plan(context: LintContext) -> Plan:
    """A fresh clean plan for the reference program (fresh program too, so
    corruptions that mutate declared dimensions stay isolated)."""
    return plan_for(reference_program(), context)


def format_selftest(results: list[SelftestResult]) -> str:
    lines = []
    for result in results:
        status = "ok" if result.passed else "FAIL"
        fired = ", ".join(result.fired_rules) or "(none)"
        lines.append(
            f"[{status}] {result.corruption}: expected {result.expected_rule}, "
            f"fired {fired}"
        )
    failures = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results)} checks, {failures} failure(s)"
        if failures
        else f"{len(results)} checks, all rules fire on their corruption"
    )
    return "\n".join(lines)
