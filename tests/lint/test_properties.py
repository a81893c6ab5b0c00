"""Property-based guarantees of the static analyzer.

Two families:

* **Soundness w.r.t. the runtime checks** -- over random programs, a plan
  that lints with zero error-severity findings also satisfies the existing
  *dynamic* invariant checks: the stage scheduler's purity validation and
  the planner's predicted-bytes/ledger decomposition.  The lint is a
  superset of what execution would catch.
* **Corruption detection** -- over random programs (not just the fixed
  selftest reference), every applicable corruption is caught by exactly
  its rule.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.estimator import SizeEstimator
from repro.core.plan import ExtendedStep, MatMulStep, RowAggStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lang.program import ProgramBuilder
from repro.lint import LintContext, lint_plan
from repro.lint.selftest import CORRUPTIONS
from repro.runtime.graph import StageGraph

CORRUPTION_BY_RULE = {c.rule: c for c in CORRUPTIONS}


@st.composite
def programs(draw):
    """Random programs exercising every operator class (mirrors the
    planner-invariant suite's generator)."""
    pb = ProgramBuilder()
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    a = pb.load("A", (m, n), sparsity=draw(st.sampled_from([0.1, 0.5, 1.0])))
    b = pb.load("B", (m, n))
    pool = [(a, (m, n)), (b, (m, n))]
    for index in range(draw(st.integers(1, 6))):
        kind = draw(
            st.sampled_from(["gram", "cell", "scalar", "unary", "rowsum", "agg"])
        )
        handle, shape = pool[draw(st.integers(0, len(pool) - 1))]
        name = f"X{index}"
        if kind == "gram":
            out = pb.assign(name, handle.T @ handle)
            pool.append((out, (shape[1], shape[1])))
        elif kind == "cell":
            peers = [(h, s) for h, s in pool if s == shape]
            other, __ = peers[draw(st.integers(0, len(peers) - 1))]
            out = pb.assign(name, handle * other)
            pool.append((out, shape))
        elif kind == "scalar":
            out = pb.assign(name, handle * draw(st.floats(-2, 2, allow_nan=False)))
            pool.append((out, shape))
        elif kind == "unary":
            func = draw(st.sampled_from(["abs", "sigmoid", "exp"]))
            from repro.lang.expr import UnaryExpr

            out = pb.assign(name, UnaryExpr(func, handle))
            pool.append((out, shape))
        elif kind == "rowsum":
            out = pb.assign(name, handle.row_sums())
            pool.append((out, (shape[0], 1)))
        else:
            pb.scalar(f"s{index}", handle.sum())
    pb.output(pool[-1][0])
    return pb.build()


workers_strategy = st.integers(1, 6)


def planned(program, workers):
    return schedule_stages(DMacPlanner(program, workers).plan())


@given(programs(), workers_strategy)
def test_planner_output_always_lints_error_clean(program, workers):
    """Algorithm 1 never emits a plan the analyzer rejects."""
    plan = planned(program, workers)
    report = lint_plan(plan, LintContext(num_workers=workers))
    assert not report.errors, report.format_human()


@given(programs(), workers_strategy)
def test_lint_clean_implies_runtime_stage_invariant(program, workers):
    """Zero error findings => the stage graph reports no wide-edge defect."""
    plan = planned(program, workers)
    report = lint_plan(plan, LintContext(num_workers=workers))
    if not report.errors:
        assert not list(StageGraph.from_plan(plan).stage_violations())


@given(programs(), workers_strategy)
def test_lint_clean_implies_ledger_decomposition(program, workers):
    """Zero error findings => predicted bytes decompose over the plan's
    communicating steps exactly as the runtime ledger accounts them."""
    plan = planned(program, workers)
    report = lint_plan(plan, LintContext(num_workers=workers))
    assume(not report.errors)
    estimator = SizeEstimator(program)
    total = 0
    for step in plan.steps:
        if isinstance(step, ExtendedStep) and step.communicates:
            nbytes = estimator.nbytes(step.source.name)
            total += (workers - 1) * nbytes if step.kind == "broadcast" else nbytes
        elif isinstance(step, (MatMulStep, RowAggStep)) and step.communicates:
            total += (workers - 1) * estimator.nbytes(step.output.name)
    assert total == plan.predicted_bytes


@settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(programs(), st.integers(2, 6), st.sampled_from(sorted(CORRUPTION_BY_RULE)))
def test_corruptions_caught_by_exactly_their_rule(program, workers, rule_id):
    """Applying a corruption to a *random* plan adds exactly the
    corruption's rule to the baseline findings -- no false positives from
    the other rules.  A corruption that does not apply to this plan (no
    broadcast to duplicate, say) raises AssertionError and the example is
    discarded."""
    context = LintContext(num_workers=workers)
    plan = planned(program, workers)
    baseline = lint_plan(plan, context)
    assume(not baseline.errors)  # the planner's own output is error-clean
    assume(rule_id not in baseline.rule_ids())
    try:
        bad_plan, bad_context = CORRUPTION_BY_RULE[rule_id].apply(plan, context)
    except AssertionError:
        assume(False)
    report = lint_plan(bad_plan, bad_context)
    if bad_plan is plan:
        expected = baseline.rule_ids() | {rule_id}
    else:
        expected = {rule_id}  # the corruption substituted its own plan
    assert report.rule_ids() == expected, report.format_human()
