"""Segment-wise execution of while-convergence programs.

A staged program's loop body is planned exactly once; the session then
extends the run segment by segment, rebinding carried variables, until the
driver evaluates the condition scalars to false.  These tests pin down the
structure (carried vars, condition, outputs), the numerics (against a pure
numpy reference), the zero-segment path, non-convergence, per-segment
lint/verify/trace, and fault recovery across segment boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.errors import ExecutionError, PlanError
from repro.frontend import Matrix, Scalar, StagedProgram, matrix_input, matrix_program
from repro.frontend.dsl import full, norm2, output, output_scalar, value
from repro.programs.power_iteration import (
    build_power_iteration_program,
    dominant_eigen_dataset,
)

N = 24


def strict_session(**kwargs) -> DMacSession:
    return DMacSession(
        ClusterConfig(num_workers=2, threads_per_worker=2), **kwargs
    )


@pytest.fixture()
def staged() -> StagedProgram:
    return build_power_iteration_program(N, eps=1e-6)


@pytest.fixture()
def data() -> np.ndarray:
    return dominant_eigen_dataset(N, seed=2)


def numpy_power_iteration(a: np.ndarray, eps: float):
    n = a.shape[0]
    x = np.full((n, 1), 1.0 / n)
    y = a @ x
    lam = (x.T @ y).item()
    segments = 0
    while np.linalg.norm(y - x * lam) > eps:
        x = y / np.linalg.norm(y)
        y = a @ x
        lam = (x.T @ y).item()
        segments += 1
    return x, lam, segments


def test_staged_structure(staged):
    assert isinstance(staged, StagedProgram)
    assert staged.condition.op == ">"
    labels = [label for label, __ in staged.segments()]
    assert labels == ["prologue", "body"]
    carried_names = {var.name for var in staged.carried}
    assert "y" in carried_names  # loop-carried iterate
    assert {out.name for out in staged.matrix_outputs} == {"x"}
    assert {out.name for out in staged.scalar_outputs} == {"lam"}


def test_converges_and_matches_numpy(staged, data):
    result = strict_session().run(staged, {"A": data})
    ref_x, ref_lam, ref_segments = numpy_power_iteration(data, 1e-6)
    assert result.num_segments == ref_segments
    assert result.num_segments >= 2  # the dataset needs real iteration
    assert result.scalars["lam"] == pytest.approx(ref_lam, rel=1e-12)
    np.testing.assert_allclose(result.matrices["x"], ref_x, atol=1e-12)
    # the dominant eigenvalue of the planted dataset
    assert result.scalars["lam"] == pytest.approx(
        np.linalg.eigvalsh(data)[-1], rel=1e-4
    )


def test_final_condition_scalars_reported(staged, data):
    result = strict_session().run(staged, {"A": data})
    # eps was bound at compile time, so the rhs is a constant in the spec;
    # the lhs residual is re-evaluated (and reported) every segment.
    assert isinstance(staged.condition.rhs, float)
    assert result.scalars["_while_lhs"] <= staged.condition.rhs
    last = result.segments[-1]
    assert last.continued is False
    assert all(record.continued for record in result.segments[:-1])


def test_zero_segments_returns_prologue_outputs(data):
    loose = build_power_iteration_program(N, eps=1e9)
    result = strict_session().run(loose, {"A": data})
    assert result.num_segments == 0
    n = data.shape[0]
    x0 = np.full((n, 1), 1.0 / n)
    np.testing.assert_allclose(result.matrices["x"], x0)
    assert result.scalars["lam"] == pytest.approx((x0.T @ data @ x0).item())


def test_non_convergence_raises(data):
    stuck = build_power_iteration_program(N, eps=1e-300)
    stuck = type(stuck)(**{**stuck.__dict__, "max_segments": 3})
    with pytest.raises(ExecutionError, match="did not converge within 3"):
        strict_session().run(stuck, {"A": data})


def test_lint_verify_trace_fire_per_segment(staged, data):
    session = strict_session(lint="error", verify="error", trace=True)
    result = session.run(staged, {"A": data})
    from repro.trace import assert_reconciled

    assert len(result.segments) == result.num_segments + 1
    for record in result.segments:
        assert record.result.tracing is not None
        assert_reconciled(record.result.tracing)


def test_costs_aggregate_over_segments(staged, data):
    result = strict_session().run(staged, {"A": data})
    assert result.comm_bytes == sum(
        record.result.comm_bytes for record in result.segments
    )
    assert result.num_stages == sum(
        record.result.num_stages for record in result.segments
    )
    assert result.peak_memory_bytes == max(
        record.result.peak_memory_bytes for record in result.segments
    )
    assert result.simulated_seconds > 0


def test_static_memory_bound_holds_over_all_segments(staged, data):
    result = strict_session().run(staged, {"A": data})
    assert result.predicted_peak_memory_bytes is not None
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes


def test_chaos_recovery_spans_segments(staged, data):
    from repro.faults import ChaosEngine, parse_fault_spec

    clean = strict_session().run(staged, {"A": data})
    engine = ChaosEngine(3, parse_fault_spec("lostblock:instance=x,iteration=1"))
    faulted = strict_session().run(staged, {"A": data}, chaos=engine)
    assert faulted.recovery is not None
    assert faulted.recovery["injected"] >= 1
    np.testing.assert_allclose(
        faulted.matrices["x"], clean.matrices["x"], atol=1e-9
    )


def books(result) -> tuple:
    """The deterministic books of a run, simulated seconds bit-exact."""
    return (
        result.comm_bytes,
        result.simulated_seconds.hex(),
        result.num_stages,
        result.num_segments,
        [(r.label, r.result.comm_bytes, r.continued) for r in result.segments],
        sorted(result.scalars.items()),
    )


def test_prebuilt_plans_give_the_same_books(staged, data):
    planned_here = strict_session().run(staged, {"A": data})
    session = strict_session()
    plans = session.plans(staged)
    assert len(plans) == 2
    prebuilt = session.run(staged, {"A": data}, plan=plans)
    assert books(prebuilt) == books(planned_here)
    np.testing.assert_array_equal(
        prebuilt.matrices["x"], planned_here.matrices["x"]
    )


def test_wrong_number_of_plans_is_a_plan_error(staged, data):
    session = strict_session()
    only_prologue = session.plan(staged.prologue)
    with pytest.raises(PlanError, match="runs 2 plan"):
        session.run(staged, {"A": data}, plan=only_prologue)
    with pytest.raises(PlanError, match="runs 2 plan"):
        session.run(staged, {"A": data}, plan=(only_prologue,))
    with pytest.raises(PlanError, match="runs 1 plan"):
        session.run(staged.prologue, {"A": data}, plan=session.plans(staged))


def test_trace_is_the_segment_traces_concatenated(staged, data):
    result = strict_session().run(staged, {"A": data}, trace=True)
    assert result.trace == [
        step for record in result.segments for step in record.result.trace
    ]
    assert sum(step.comm_bytes for step in result.trace) == result.comm_bytes
    assert sum(result.comm_by_stage().values()) == result.comm_bytes
    assert strict_session().run(staged, {"A": data}).trace is None


def small_straight_line_workload():
    from repro.programs.registry import WorkloadParams, build_workload

    return build_workload(
        "gnmf", WorkloadParams(scale=1.5e-3, iterations=2, factors=4)
    )


def test_one_result_type_for_both_program_kinds(staged, data):
    from repro import ExecutionResult
    from repro.runtime.segments import RunResult

    load = small_straight_line_workload()
    looped = strict_session().run(staged, {"A": data}, trace=True)
    straight = strict_session().run(load.program, load.inputs, trace=True)
    for result in (looped, straight):
        assert type(result) is RunResult
        assert isinstance(result, ExecutionResult)
        assert result.segments
        for record in result.segments:
            # jobs.py and friends tell a run from an execution by this
            assert type(record.result) is ExecutionResult
            assert not hasattr(record.result, "segments")
        assert result.trace and result.stage_timings and result.critical_path
        assert result.elastic is not None
        assert result.predicted_peak_memory_bytes is not None
    assert looped.loop is staged and looped.num_segments >= 2
    assert straight.loop is None and straight.num_segments == 0
    assert [r.label for r in straight.segments] == ["program"]
    assert straight.segments[0].continued is False


def test_one_execution_folds_to_itself():
    """session.run of a straight-line program carries, field by field, what
    the executor returns for the same plan on a fresh session."""
    import dataclasses

    from repro.faults import ChaosEngine, parse_fault_spec
    from repro.runtime.executor import ExecutionResult, PlanExecutor

    load = small_straight_line_workload()

    def chaos():
        return ChaosEngine(7, parse_fault_spec("crash:stage=2"))

    serial = ClusterConfig(
        num_workers=2, threads_per_worker=1, max_concurrent_stages=1
    )
    session = DMacSession(serial, optimize=True)
    folded = session.run(load.program, load.inputs, trace=True, chaos=chaos())
    fresh = DMacSession(serial, optimize=True)
    (plan,) = fresh.plans(load.program)
    direct = PlanExecutor(fresh.context, fresh.config.block_size).execute(
        plan, load.inputs, trace=True, chaos=chaos()
    )
    wall_clock = {"wall_seconds", "trace"}
    for field in dataclasses.fields(ExecutionResult):
        ours, theirs = getattr(folded, field.name), getattr(direct, field.name)
        if field.name == "matrices":
            assert list(ours) == list(theirs)
            for name in ours:
                np.testing.assert_array_equal(ours[name], theirs[name])
        elif field.name not in wall_clock:
            assert ours == theirs, field.name
    assert [(t.step, t.stage, t.comm_bytes, t.flops) for t in folded.trace] == [
        (t.step, t.stage, t.comm_bytes, t.flops) for t in direct.trace
    ]
    assert folded.recovery["injected"] == 1 and folded.cache is not None
    assert folded.simulated_seconds.hex() == direct.simulated_seconds.hex()


@pytest.mark.parametrize("looping", [True, False], ids=["loop", "no-loop"])
def test_injected_counts_the_inject_events(staged, data, looping):
    """One engine spans every execution of a run; each execution reports
    its own injections, so the fold's sum is the number of faults -- as
    many as the executions' traces saw."""
    from repro.faults import ChaosEngine, parse_fault_spec

    if looping:
        program, inputs = staged, {"A": data}
    else:
        load = small_straight_line_workload()
        program, inputs = load.program, load.inputs
    engine = ChaosEngine(7, parse_fault_spec("crash:stage=2"))
    result = strict_session(trace=True).run(program, inputs, chaos=engine)
    injects = [e for e in result.recovery["events"] if e["event"] == "inject"]
    traced = sum(len(seg.result.tracing.events("fault")) for seg in result.segments)
    assert injects
    assert result.recovery["injected"] == len(injects) == traced
    assert result.recovery["retries"] == len(injects)


def test_missing_input_names_the_load(staged):
    with pytest.raises(ExecutionError, match="A"):
        strict_session().run(staged, {})


def test_loop_invariant_input_stays_bound_every_segment():
    # `A` is read inside the body but never assigned: every segment must
    # re-read the runtime input, not a stale prologue copy.
    @matrix_program
    def drift(A: Matrix, eps: Scalar):
        x = full(A.rows, 1, 1.0)
        r = norm2(A @ x - x)
        while r > eps:
            x = A @ x
            r = norm2(A @ x - x)
        output(x)
        output_scalar(r)

    staged = drift.compile(A=matrix_input((4, 4)), eps=1e-9)
    a = np.eye(4) * 0.5
    result = strict_session().run(staged, {"A": a})
    # x halves every segment until A @ x - x is tiny; final x must be a
    # power of 0.5, proving A was re-applied each segment.
    final = result.matrices["x"][0, 0]
    assert final == pytest.approx(0.5 ** (result.num_segments + 0), rel=1e-12) or (
        final == pytest.approx(0.5 ** result.num_segments, rel=1e-12)
    )


def test_scalar_condition_recomputed_in_body():
    # The condition can read a runtime scalar as long as the body
    # recomputes it each segment.
    @matrix_program
    def shrink(A: Matrix, tol: Scalar):
        x = full(A.rows, 1, 1.0)
        x = A @ x
        cur = value(x.T @ x)
        while cur > tol:
            x = A @ x
            cur = value(x.T @ x)
        output(x)
        output_scalar(cur)

    staged = shrink.compile(A=matrix_input((3, 3)), tol=1e-4)
    a = np.eye(3) * 0.25
    result = strict_session().run(staged, {"A": a})
    assert result.scalars["cur"] <= 1e-4
    assert result.num_segments >= 1


def test_loop_carried_scalar_rejected_with_guidance():
    from repro.frontend import FrontendError

    @matrix_program
    def carried(A: Matrix, tol: Scalar):
        x = full(A.rows, 1, 1.0)
        cur = value(x.T @ x)
        while cur > tol:
            prev = cur  # noqa: F841 -- reads a prologue scalar in the body
            x = A @ x
            cur = value(x.T @ x)
        output(x)
        output_scalar(cur)

    with pytest.raises(FrontendError, match="recompute it in the body"):
        carried.compile(A=matrix_input((3, 3)), tol=1e-4)
