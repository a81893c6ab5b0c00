"""The session/report surface: verify modes, the aggregate report, and the
executor's pre-run prediction field."""

import pytest

from repro import (
    ClusterConfig,
    DMacSession,
    PlanError,
    VerificationError,
)
from repro.lang.program import ProgramBuilder
from repro.session import VERIFY_MODES
from repro.verify import verify_plan

from tests.verify._workloads import small_workload


def _tiny_program():
    pb = ProgramBuilder()
    A = pb.random("A", (24, 24))
    s = pb.scalar("s", A.sum())
    pb.output(pb.assign("B", A * s))
    return pb.build()


def _break_ordering(plan):
    aggregate = next(
        i for i, s in enumerate(plan.steps) if s.scalar_output() is not None
    )
    scalar_name = plan.steps[aggregate].scalar_output()
    consumer = next(
        i for i, s in enumerate(plan.steps)
        if scalar_name in s.scalar_inputs()
    )
    plan.steps.insert(consumer, plan.steps.pop(aggregate))
    return plan


def test_verify_modes_are_validated():
    assert VERIFY_MODES == ("off", "warn", "error")
    with pytest.raises(PlanError, match="unknown verify mode"):
        DMacSession(verify="strict")


def test_error_mode_executes_clean_plans():
    session = DMacSession(ClusterConfig(num_workers=4), verify="error")
    result = session.run(_tiny_program())
    assert result.matrices
    assert result.predicted_peak_memory_bytes is not None
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes


def test_error_mode_refuses_hazardous_plans():
    session = DMacSession(ClusterConfig(num_workers=4), verify="error")
    program = _tiny_program()
    plan = _break_ordering(session.plan(program))
    with pytest.raises(VerificationError, match="read-before-publish"):
        session.run(program, plan=plan)


def test_warn_mode_reports_to_stderr_and_runs_nothing_less(capsys):
    session = DMacSession(ClusterConfig(num_workers=4), verify="warn")
    session.run(_tiny_program())
    assert "read-before-publish" not in capsys.readouterr().err


def test_report_aggregates_all_three_clients():
    program, __, ___ = small_workload("pagerank")
    session = DMacSession(ClusterConfig(num_workers=4), optimize=True)
    plan = session.plan(program)
    report = verify_plan(plan, num_workers=4, target="pagerank")
    assert not report.has_errors
    assert report.certificates  # optimizer left an audit trail
    assert report.memory.peak_bytes > 0
    document = report.to_json_dict()
    assert document["ok"] is True
    assert document["target"] == "pagerank"
    assert document["certificates"]
    rendered = report.format_human()
    assert "[certified]" in rendered
    assert "[memory]" in rendered
    assert "[hazards]" in rendered


def test_report_renders_hazards_as_errors():
    session = DMacSession(ClusterConfig(num_workers=4))
    plan = _break_ordering(session.plan(_tiny_program()))
    report = verify_plan(plan, num_workers=4)
    assert report.has_errors
    assert "hazard(s) found" in report.format_human()
    assert report.to_json_dict()["ok"] is False
