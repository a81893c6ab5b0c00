"""Tests for the plan executor."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import ExecutionError
from repro.lang.expr import (
    ScalarBinaryExpr,
    ScalarConst,
    ScalarRefExpr,
    ScalarUnaryExpr,
)
from repro.lang.program import ProgramBuilder
from repro.rdd.context import ClusterContext
from repro.runtime.executor import PlanExecutor, evaluate_scalar


@pytest.fixture
def ctx():
    return ClusterContext(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=8))


def run(ctx, program, inputs=None):
    plan = schedule_stages(DMacPlanner(program, ctx.num_workers).plan())
    return PlanExecutor(ctx, 8).execute(plan, inputs)


class TestExecution:
    def test_simple_pipeline(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 12))
        b = pb.load("B", (12, 8))
        pb.output(pb.assign("C", a @ b))
        arrays = {"A": rng.random((16, 12)), "B": rng.random((12, 8))}
        result = run(ctx, pb.build(), arrays)
        np.testing.assert_allclose(result.matrices["C"], arrays["A"] @ arrays["B"], atol=1e-9)

    def test_scalars_flow_through(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        s = pb.scalar("s", a.sum())
        pb.output(pb.assign("B", a * (s / 2.0)))
        pb.scalar_output(s)
        array = rng.random((8, 8))
        result = run(ctx, pb.build(), {"A": array})
        assert result.scalars["s"] == pytest.approx(array.sum())
        np.testing.assert_allclose(result.matrices["B"], array * (array.sum() / 2.0))

    def test_random_source_seeded(self, ctx):
        pb = ProgramBuilder()
        w = pb.random("W", (8, 8), seed=5)
        pb.output(pb.assign("X", w + w))
        result = run(ctx, pb.build())
        expected = np.random.default_rng(5).random((8, 8))
        np.testing.assert_allclose(result.matrices["X"], 2 * expected)

    def test_full_source(self, ctx):
        pb = ProgramBuilder()
        d = pb.full("D", (4, 4), 0.25)
        pb.output(pb.assign("X", d * 4.0))
        result = run(ctx, pb.build())
        np.testing.assert_allclose(result.matrices["X"], np.ones((4, 4)))

    def test_missing_input_rejected(self, ctx):
        pb = ProgramBuilder()
        pb.output(pb.load("A", (4, 4)))
        with pytest.raises(ExecutionError):
            run(ctx, pb.build(), {})

    def test_wrong_input_shape_rejected(self, ctx, rng):
        pb = ProgramBuilder()
        pb.output(pb.load("A", (4, 4)))
        with pytest.raises(ExecutionError):
            run(ctx, pb.build(), {"A": rng.random((5, 5))})

    def test_metrics_populated(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (32, 32))
        b = pb.load("B", (32, 4))
        pb.output(pb.assign("C", a @ b))
        result = run(ctx, pb.build(), {"A": rng.random((32, 32)), "B": rng.random((32, 4))})
        assert result.num_stages >= 1
        assert result.simulated_seconds > 0
        assert result.time.compute_seconds > 0
        assert result.peak_memory_bytes > 0
        assert result.wall_seconds > 0

    def test_measured_comm_bounded_by_prediction(self, ctx, rng):
        from repro.programs import build_gnmf_program
        from repro.datasets import sparse_random

        program = build_gnmf_program((64, 48), 0.1, factors=4, iterations=2)
        plan = schedule_stages(DMacPlanner(program, 4).plan())
        data = sparse_random(64, 48, 0.1, seed=0, ensure_coverage=True)
        result = PlanExecutor(ctx, 8).execute(plan, {"V": data})
        # The prediction is an upper bound (worst-case sizes, whole-matrix
        # moves); physical traffic must not exceed it (plus record framing).
        assert result.comm_bytes <= plan.predicted_bytes * 1.2 + 4096
        assert result.comm_bytes > 0

    def test_zero_comm_plan_moves_zero_bytes(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        pb.output(pb.assign("C", (a + b) * a))
        result = run(ctx, pb.build(), {"A": rng.random((16, 16)), "B": rng.random((16, 16))})
        assert result.comm_bytes == 0

    def test_auto_block_size_used_when_unconfigured(self, rng):
        ctx = ClusterContext(ClusterConfig(num_workers=2, threads_per_worker=2))
        pb = ProgramBuilder()
        a = pb.load("A", (64, 64))
        pb.output(pb.assign("B", a + a))
        plan = schedule_stages(DMacPlanner(pb.build(), 2).plan())
        result = PlanExecutor(ctx).execute(plan, {"A": rng.random((64, 64))})
        np.testing.assert_allclose(result.matrices["B"], 2 * result.matrices["B"] / 2)

    def test_transposed_output_materialised_correctly(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 12))
        pb.output(pb.assign("B", a.T))  # identity op on a transposed operand
        array = rng.random((8, 12))
        result = run(ctx, pb.build(), {"A": array})
        np.testing.assert_allclose(result.matrices["B"], array.T)


class TestScalarEvaluation:
    def test_constants_and_refs(self):
        assert evaluate_scalar(ScalarConst(2.5), {}) == 2.5
        assert evaluate_scalar(ScalarRefExpr("x"), {"x": 3.0}) == 3.0

    def test_missing_ref_rejected(self):
        with pytest.raises(ExecutionError):
            evaluate_scalar(ScalarRefExpr("ghost"), {})

    def test_binary_ops(self):
        two, three = ScalarConst(2.0), ScalarConst(3.0)
        assert evaluate_scalar(ScalarBinaryExpr("add", two, three), {}) == 5.0
        assert evaluate_scalar(ScalarBinaryExpr("subtract", two, three), {}) == -1.0
        assert evaluate_scalar(ScalarBinaryExpr("multiply", two, three), {}) == 6.0
        assert evaluate_scalar(ScalarBinaryExpr("divide", three, two), {}) == 1.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate_scalar(
                ScalarBinaryExpr("divide", ScalarConst(1.0), ScalarConst(0.0)), {}
            )

    def test_unary_ops(self):
        assert evaluate_scalar(ScalarUnaryExpr("negate", ScalarConst(2.0)), {}) == -2.0
        assert evaluate_scalar(ScalarUnaryExpr("sqrt", ScalarConst(9.0)), {}) == 3.0

    def test_sqrt_of_negative(self):
        with pytest.raises(ExecutionError):
            evaluate_scalar(ScalarUnaryExpr("sqrt", ScalarConst(-1.0)), {})
