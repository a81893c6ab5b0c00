"""Translation validation: identity and strategy changes certify, value
changes are rejected, and a broken optimizer pass can never hand its plan
to the executor."""

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.cli import APPS
from repro.core.cost import CostModel
from repro.core.defuse import DefUse
from repro.core.plan import CellwiseStep, MatMulStep
from repro.errors import TranslationValidationError
from repro.lang.program import ProgramBuilder
from repro.planopt import optimize_plan
from repro.planopt.associate import reassociate
from repro.planopt.common import AppliedRewrite, clone_plan
from repro.verify import certify, value_summary
from repro.verify.certify import OBLIGATIONS

from tests.verify._workloads import small_workload


def _gnmf_plan():
    program, __, ___ = small_workload("gnmf")
    return DMacSession(ClusterConfig(num_workers=4)).plan(program)


def test_identity_certifies_every_obligation():
    plan = _gnmf_plan()
    certificate = certify(plan, clone_plan(plan), pass_name="identity")
    assert certificate.obligations == OBLIGATIONS
    assert certificate.outputs == len(plan.outputs)


def test_matmul_strategy_is_a_free_degree_of_freedom():
    plan = _gnmf_plan()
    rewritten = clone_plan(plan)
    matmuls = [s for s in rewritten.steps if isinstance(s, MatMulStep)]
    assert matmuls, "GNMF must contain matmul steps"
    for step in matmuls:
        step.strategy = "cpmm" if step.strategy != "cpmm" else "rmm1"
    certify(plan, rewritten, pass_name="restrategise")  # must not raise


def test_swapped_divide_operands_fail_value_equivalence():
    plan = _gnmf_plan()
    rewritten = clone_plan(plan)
    divide = next(
        s for s in rewritten.steps
        if isinstance(s, CellwiseStep) and s.op.op == "divide"
    )
    divide.left, divide.right = divide.right, divide.left
    with pytest.raises(TranslationValidationError, match="value-equivalence"):
        certify(plan, rewritten, pass_name="swap")


def _product_plan(order):
    """The DMac plan of ``X = <order>`` over square ``W``, ``H`` (so every
    association and misplaced transpose type-checks), GNMF's ``W H H^T``
    spelled four ways."""
    pb = ProgramBuilder()
    w = pb.random("W", (12, 12), seed=1)
    h = pb.random("H", (12, 12), seed=2)
    expr = {
        "(W H) H^T": lambda: w @ h @ h.T,
        "W (H H^T)": lambda: w @ (h @ h.T),
        "W (H^T H)": lambda: w @ (h.T @ h),
        "(H H^T) W": lambda: h @ h.T @ w,
    }[order]()
    pb.output(pb.assign("X", expr))
    return DMacSession(ClusterConfig(num_workers=4)).plan(pb.build())


def test_a_reassociated_product_certifies():
    """Keys flatten nested products: ``(W H) H^T`` and ``W (H H^T)`` get
    one key, although the two plans multiply different intermediates."""
    before, after = _product_plan("(W H) H^T"), _product_plan("W (H H^T)")
    certificate = certify(before, after, pass_name="associate")
    assert certificate.outputs == 1


@pytest.mark.parametrize(
    "order", ["W (H^T H)", "(H H^T) W"], ids=["misplaced-transpose", "swapped-factor"]
)
def test_a_misplaced_transpose_or_a_swapped_factor_is_rejected(order):
    with pytest.raises(TranslationValidationError, match="value-equivalence"):
        certify(_product_plan("(W H) H^T"), _product_plan(order), pass_name="bad")


def test_a_reassociated_gnmf_plan_certifies():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    program, rewrites = reassociate(plan.program, CostModel(plan.program, 4))
    assert {r.pass_name for r in rewrites} == {"associate"}
    certify(plan, plan.replan(program), pass_name="associate")


def test_duplicate_publish_of_the_same_value_is_not_a_conflict():
    plan = _gnmf_plan()
    summary = value_summary(plan)
    assert summary.conflicts == ()
    assert DefUse.of(plan).order_violations() == ()


class _EvilPass:
    """A plausible-looking rewrite that silently swaps divide operands --
    the classic broken-optimizer bug translation validation must catch."""

    name = "evil"

    def run(self, plan, context):
        divide = next(
            s for s in plan.steps
            if isinstance(s, CellwiseStep) and s.op.op == "divide"
        )
        divide.left, divide.right = divide.right, divide.left
        return [AppliedRewrite(pass_name=self.name,
                               description="swap divide operands")]


def test_broken_pass_is_rejected_before_any_plan_escapes():
    plan = _gnmf_plan()
    with pytest.raises(TranslationValidationError, match="pass 'evil'"):
        optimize_plan(plan, num_workers=4, passes=(_EvilPass(),))


def test_the_broken_pass_really_changes_the_results():
    # Negative control for the test above: applied outside the pipeline,
    # the evil pass yields a plan certify rejects and that computes other
    # values -- so the pipeline's rejection is what stops it.
    program, inputs, __ = small_workload("gnmf")
    session = DMacSession(ClusterConfig(num_workers=4))
    plan = session.plan(program)
    broken = clone_plan(plan)
    _EvilPass().run(broken, None)
    with pytest.raises(TranslationValidationError, match="value-equivalence"):
        certify(plan, broken, pass_name="evil")
    good = session.run(program, inputs, plan=plan).matrices
    bad = session.run(program, inputs, plan=broken).matrices
    assert any(not np.array_equal(good[name], bad[name]) for name in good)


@pytest.mark.parametrize("app", APPS)
def test_every_optimizer_rewrite_on_the_paper_apps_is_certified(app):
    program, __, ___ = small_workload(app)
    session = DMacSession(ClusterConfig(num_workers=4), optimize=True)
    plan = session.plan(program)
    certificates = plan.certificates
    assert certificates, "optimized plans must carry a certificate trail"
    assert certificates[-1].pass_name == "pipeline"
    for certificate in certificates:
        assert certificate.obligations == OBLIGATIONS
    # Every applied rewrite is covered by exactly one per-pass certificate,
    # and the end-to-end pipeline certificate agrees on the total.
    per_pass = sum(
        c.rewrites for c in certificates if c.pass_name != "pipeline"
    )
    assert per_pass == len(plan.rewrites)
    assert certificates[-1].rewrites == len(plan.rewrites)
