"""Per-rule tests: every rule has a case where it fires and one where it
stays silent.

Firing cases reuse the self-test corruption helpers (the canonical minimal
defect per rule); silent cases lint the clean reference plan -- or a plan
specifically shaped to sit just on the legal side of the rule's condition.
"""

import dataclasses

import pytest

from repro.core.plan import ExtendedStep, MatMulStep, MatrixInstance, Plan, SourceStep
from repro.lang.program import MatMulOp, ProgramBuilder
from repro.lint import LintContext, RULES, Severity, lint_plan, lint_program, plan_for
from repro.lint.selftest import CORRUPTIONS, reference_program
from repro.matrix.schemes import Scheme

CORRUPTION_BY_RULE = {c.rule: c for c in CORRUPTIONS}


@pytest.fixture()
def context():
    return LintContext()


def fresh_plan(context):
    return plan_for(reference_program(), context)


# ---------------------------------------------------------------------------
# Registry sanity
# ---------------------------------------------------------------------------


def test_at_least_ten_rules_across_both_families():
    invariant = [r for r in RULES.values() if r.family == "invariant"]
    inefficiency = [r for r in RULES.values() if r.family == "inefficiency"]
    assert len(RULES) >= 10
    assert len(invariant) >= 6 and len(inefficiency) >= 5
    assert all(r.severity is Severity.ERROR for r in invariant)
    assert all(r.severity is Severity.WARNING for r in inefficiency)


def test_every_rule_documents_itself():
    for rule in RULES.values():
        assert rule.title and rule.paper and rule.hint


# ---------------------------------------------------------------------------
# Each rule fires on its corruption ...
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_rule_fires_on_its_corruption(rule_id, context):
    corruption = CORRUPTION_BY_RULE[rule_id]
    plan, ctx = corruption.apply(fresh_plan(context), context)
    report = lint_plan(plan, ctx)
    assert rule_id in report.rule_ids()
    severity = RULES[rule_id].severity
    assert any(d.rule == rule_id and d.severity is severity for d in report)


# ---------------------------------------------------------------------------
# ... and stays silent on the clean reference plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_rule_silent_on_clean_plan(rule_id, context):
    report = lint_plan(fresh_plan(context), context)
    assert rule_id not in report.rule_ids()


# ---------------------------------------------------------------------------
# Targeted silent cases: just on the legal side of each rule's condition
# ---------------------------------------------------------------------------


def test_block_size_at_the_bound_is_legal(context):
    """DM105 allows a block size exactly at the Equation-3 bound."""
    from repro.blocks.memory import max_block_size

    program = reference_program()
    rows, cols = max(program.dims.values(), key=lambda s: s[0] * s[1])
    bound = max_block_size(
        rows, cols, context.num_workers, context.threads_per_worker
    )
    at_bound = dataclasses.replace(context, block_size=bound)
    report = lint_plan(plan_for(program, at_bound), at_bound)
    assert "DM105" not in report.rule_ids()
    over = dataclasses.replace(context, block_size=bound + 1)
    report = lint_plan(plan_for(program, over), over)
    assert "DM105" in report.rule_ids()


def test_broadcast_within_budget_is_legal(context):
    """DM106 stays quiet when every replica fits the budget."""
    generous = dataclasses.replace(context, memory_limit_bytes=10**12)
    report = lint_plan(fresh_plan(context), generous)
    assert "DM106" not in report.rule_ids()


def test_cpmm_where_it_wins_is_legal(context):
    """DM204 stays quiet when CPMM's floor beats the best RMM ceiling:
    a small output with huge inputs."""
    pb = ProgramBuilder()
    a = pb.random("A", (4, 1000))
    b = pb.random("B", (1000, 4))
    c = pb.assign("C", a @ b)  # tiny 4x4 output: cpmm is the right call
    pb.output(c)
    program = pb.build()
    plan = plan_for(program, context)
    assert any(
        isinstance(s, MatMulStep) and s.strategy == "cpmm" for s in plan.steps
    )
    report = lint_plan(plan, context)
    assert "DM204" not in report.rule_ids()
    assert not report.errors


def test_partition_to_a_new_scheme_is_not_redundant(context):
    """DM201 only fires for same-scheme repartitions, not real ones."""
    pb = ProgramBuilder()
    a = pb.random("A", (40, 40))
    b = pb.random("B", (40, 40))
    pb.output(pb.assign("C", a @ b))
    plan = plan_for(pb.build(), context)
    partitions = [
        s for s in plan.steps
        if isinstance(s, ExtendedStep) and s.kind == "partition"
    ]
    report = lint_plan(plan, context)
    assert "DM201" not in report.rule_ids()
    assert all(s.source.scheme is not s.target.scheme for s in partitions)


def test_single_transpose_is_legal(context):
    """DM203 needs a cancelling *pair*; the reference plan's transposes
    are all productive."""
    plan = fresh_plan(context)
    assert any(
        isinstance(s, ExtendedStep) and s.kind == "transpose" for s in plan.steps
    )
    assert "DM203" not in lint_plan(plan, context).rule_ids()


def test_program_level_shape_mismatch_detected(context):
    """DM101 works on a bare program (no plan) too."""
    from repro.lang.program import MatrixProgram, Operand, RandomOp

    bad = MatrixProgram(
        ops=(
            RandomOp("A", 4, 5),
            RandomOp("B", 4, 5),
            MatMulOp("C", Operand("A"), Operand("B")),  # 4x5 @ 4x5: inner mismatch
        ),
        dims={"A": (4, 5), "B": (4, 5), "C": (4, 5)},
        input_sparsity={},
        outputs=("C",),
        scalar_outputs=(),
        bindings={},
    )
    report = lint_program(bad, context)
    assert "DM101" in report.rule_ids()


def test_program_level_dead_operator_detected(context):
    """DM202 works on a bare program: an op feeding nothing is flagged."""
    pb = ProgramBuilder()
    a = pb.random("A", (6, 6))
    pb.assign("dead", a * 2.0)  # never consumed, never output
    pb.output(pb.assign("live", a * 3.0))
    report = lint_program(pb.build(), context)
    assert "DM202" in report.rule_ids()
    clean = ProgramBuilder()
    x = clean.random("X", (6, 6))
    clean.output(clean.assign("Y", x * 2.0))
    assert "DM202" not in lint_program(clean.build(), context).rule_ids()


def test_rebroadcast_of_new_version_is_legal(context):
    """DM205 keys on (name, transposed): broadcasting *different* versions
    of a logical matrix across iterations is the normal loop pattern."""
    plan = fresh_plan(context)
    broadcast_sources = [
        s.source.name
        for s in plan.steps
        if isinstance(s, ExtendedStep) and s.kind == "broadcast"
    ]
    assert len(broadcast_sources) == len(set(broadcast_sources))
    assert "DM205" not in lint_plan(plan, context).rule_ids()


def test_scheme_rule_checks_every_compute_family(context):
    """DM102 validates matmul strategies against the Table-2 catalog."""
    pb = ProgramBuilder()
    a = pb.random("A", (30, 30))
    pb.output(pb.assign("C", a @ a))
    plan = plan_for(pb.build(), context)
    step = next(s for s in plan.steps if isinstance(s, MatMulStep))
    step.strategy = "summa"  # not a DMac strategy
    report = lint_plan(plan, context)
    assert any(
        d.rule == "DM102" and "unknown matmul strategy" in d.message
        for d in report
    )


def test_ghost_input_reported_once_per_step(context):
    """DM107 pins the consuming step for never-produced instances."""
    pb = ProgramBuilder()
    a = pb.random("A", (8, 8))
    pb.output(pb.assign("C", a @ a))
    plan = plan_for(pb.build(), context)
    step = next(s for s in plan.steps if isinstance(s, MatMulStep))
    step.left = MatrixInstance("ghost", False, step.left.scheme)
    report = lint_plan(plan, context)
    assert any(d.rule == "DM107" and d.step is not None for d in report)


def test_ledger_rule_is_total_on_unknown_matrices(context):
    """A transfer of a matrix the program never declared has no price:
    DM104 stays quiet (DM107 reports the ghost) instead of crashing."""
    pb = ProgramBuilder()
    a = pb.random("A", (8, 8))
    pb.output(pb.assign("C", a @ a))
    plan = plan_for(pb.build(), context)
    ghost = MatrixInstance("ghost", False, Scheme.ROW)
    stray = ExtendedStep("partition", ghost, ghost.with_scheme(Scheme.COL))
    stray.stage = plan.num_stages
    plan.steps.append(stray)
    rules = {d.rule for d in lint_plan(plan, context)}
    assert "DM107" in rules and "DM104" not in rules


def test_hand_built_clean_plan_lints_clean(context):
    """A minimal hand-built plan satisfying every contract is clean."""
    pb = ProgramBuilder()
    a = pb.random("A", (4, 100))
    b = pb.random("B", (100, 4))
    pb.output(pb.assign("C", a @ b))
    program = pb.build()
    a_name, b_name, c_name = (
        program.bindings["A"], program.bindings["B"], program.bindings["C"]
    )
    matmul = next(op for op in program.ops if isinstance(op, MatMulOp))
    ai = MatrixInstance(a_name, False, Scheme.COL)
    bi = MatrixInstance(b_name, False, Scheme.ROW)
    ci = MatrixInstance(c_name, False, Scheme.ROW)
    from repro.core.estimator import SizeEstimator

    plan = Plan(
        program=program,
        steps=[
            SourceStep(next(o for o in program.ops if o.output == a_name), ai),
            SourceStep(next(o for o in program.ops if o.output == b_name), bi),
            MatMulStep(matmul, "cpmm", ai, bi, ci),
        ],
        outputs={c_name: ci},
        predicted_bytes=(context.num_workers - 1)
        * SizeEstimator(program).nbytes(c_name),
    )
    report = lint_plan(plan, context)
    assert not report.diagnostics, report.format_human()
