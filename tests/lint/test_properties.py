"""Property-based guarantees of the static analyzer.

Two families:

* **Soundness w.r.t. the runtime checks** -- over random programs, a plan
  that lints with zero error-severity findings also satisfies the stage
  scheduler's purity validation.  The lint is a superset of what
  execution would catch.  (The predicted-bytes/ledger decomposition holds
  of every planned program, lint-clean or not:
  ``tests/core/test_planner_invariants.py``.)
* **Corruption detection** -- over random programs (not just the fixed
  selftest reference), every applicable corruption is caught by exactly
  its rule.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lint import LintContext, lint_plan
from repro.lint.selftest import CORRUPTIONS
from repro.runtime.graph import StageGraph

from tests.program_strategy import matrix_programs

CORRUPTION_BY_RULE = {c.rule: c for c in CORRUPTIONS}


def planned(program, workers):
    return schedule_stages(DMacPlanner(program, workers).plan())


@given(matrix_programs(), st.integers(1, 6))
def test_planner_output_always_lints_error_clean(program, workers):
    """Algorithm 1 never emits a plan the analyzer rejects."""
    plan = planned(program, workers)
    report = lint_plan(plan, LintContext(num_workers=workers))
    assert not report.errors, report.format_human()


@given(matrix_programs(), st.integers(1, 6))
def test_lint_clean_implies_runtime_stage_invariant(program, workers):
    """Zero error findings => the stage graph reports no wide-edge defect."""
    plan = planned(program, workers)
    report = lint_plan(plan, LintContext(num_workers=workers))
    if not report.errors:
        assert not list(StageGraph.from_plan(plan).stage_violations())


@settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(matrix_programs(), st.integers(2, 6), st.sampled_from(sorted(CORRUPTION_BY_RULE)))
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
