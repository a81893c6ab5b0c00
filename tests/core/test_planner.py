"""Tests for the DMac plan generator: chains, heuristics, paper claims."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.plan import ExtendedStep, SourceStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.lang.program import ProgramBuilder
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from repro.runtime.executor import PlanExecutor


def plan_for(program, workers=4, **kwargs):
    return DMacPlanner(program, workers, **kwargs).plan()


def partition_steps(plan, name=None):
    return [
        s
        for s in plan.steps
        if isinstance(s, ExtendedStep)
        and s.kind == "partition"
        and (name is None or s.source.name == name)
    ]


def broadcast_steps(plan, name=None):
    return [
        s
        for s in plan.steps
        if isinstance(s, ExtendedStep)
        and s.kind == "broadcast"
        and (name is None or s.source.name == name)
    ]


class TestBasicPlanning:
    def test_cellwise_on_fresh_sources_is_comm_free(self):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        pb.output(pb.assign("C", a + b))
        plan = plan_for(pb.build())
        assert plan.predicted_bytes == 0
        assert plan.communicating_steps() == []

    def test_chained_cellwise_reuses_schemes(self):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        c = pb.assign("C", a + b)
        d = pb.assign("D", c * a)
        pb.output(pb.assign("E", d - b))
        plan = plan_for(pb.build())
        assert plan.predicted_bytes == 0

    def test_transpose_dependency_is_free(self):
        """A and A^T are mutually derivable without communication."""
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        c = pb.assign("C", a + b)  # locks A's scheme
        pb.output(pb.assign("D", a.T + c.T))  # both satisfiable by transpose
        plan = plan_for(pb.build())
        assert plan.predicted_bytes == 0

    def test_plan_is_deterministic(self):
        def build():
            pb = ProgramBuilder()
            v = pb.load("V", (32, 24), sparsity=0.1)
            w = pb.random("W", (32, 4))
            h = pb.random("H", (4, 24))
            pb.output(pb.assign("H", h * (w.T @ v) / (w.T @ w @ h)))
            return pb.build()

        first = plan_for(build())
        second = plan_for(build())
        assert [str(s) for s in first.steps] == [str(s) for s in second.steps]

    def test_operand_before_production_rejected(self):
        from repro.lang.program import MatMulOp, MatrixProgram, Operand

        program = MatrixProgram(
            ops=(MatMulOp("C", Operand("A"), Operand("B")),),
            dims={"A": (4, 4), "B": (4, 4), "C": (4, 4)},
            input_sparsity={},
            outputs=("C",),
            scalar_outputs=(),
            bindings={},
        )
        with pytest.raises(PlanError):
            plan_for(program)

    def test_output_never_materialised_rejected(self):
        from repro.lang.program import LoadOp, MatrixProgram

        program = MatrixProgram(
            ops=(LoadOp("A", 4, 4, 1.0),),
            dims={"A": (4, 4)},
            input_sparsity={"A": 1.0},
            outputs=("ghost",),
            scalar_outputs=(),
            bindings={},
        )
        with pytest.raises(PlanError):
            plan_for(program)


class TestReassignment:
    def test_source_scheme_bound_lazily(self):
        """A load consumed first under Column should be laid out Column."""
        pb = ProgramBuilder()
        a = pb.load("A", (32, 32))
        tiny = pb.random("t", (4, 32))
        pb.output(pb.assign("C", tiny @ a))  # RMM1 wants A(c)
        plan = plan_for(pb.build())
        source = next(
            s for s in plan.steps if isinstance(s, SourceStep) and s.op.output == "A"
        )
        assert source.output.scheme is Scheme.COL
        assert partition_steps(plan, "A") == []

    def test_reassignment_locked_after_first_consumer(self):
        """Once consumed under Row, the source cannot flip to serve a later
        Column-preferring operator: the later op must pay (here CPMM's
        output shuffle is the cheapest remaining option)."""
        pb = ProgramBuilder()
        a = pb.load("A", (32, 32))
        b = pb.load("B", (32, 32))
        pb.assign("C", a + b)  # consumes A under a 1-D scheme (Row by tie)
        tiny = pb.random("t", (4, 32))
        pb.output(pb.assign("D", tiny @ a))
        plan = plan_for(pb.build(), **{"pull_up_broadcast": False})
        source = next(
            s for s in plan.steps if isinstance(s, SourceStep) and s.op.output == "A"
        )
        assert source.output.scheme is Scheme.ROW  # locked, not rebound
        assert plan.predicted_bytes > 0  # the later op pays communication

    def test_disabled_reassignment_pays(self):
        pb = ProgramBuilder()
        a = pb.load("A", (32, 32))
        tiny = pb.random("t", (4, 32))
        pb.output(pb.assign("C", tiny @ a))
        with_h = plan_for(pb.build(), re_assignment=True)

        pb2 = ProgramBuilder()
        a = pb2.load("A", (32, 32))
        tiny = pb2.random("t", (4, 32))
        pb2.output(pb2.assign("C", tiny @ a))
        without_h = plan_for(pb2.build(), re_assignment=False, pull_up_broadcast=False)
        assert with_h.predicted_bytes <= without_h.predicted_bytes


def pull_up_program():
    """A is repartitioned for one op, then needed Broadcast by a later one:
    the exact Heuristic 1 scenario."""
    pb = ProgramBuilder()
    a = pb.load("A", (10, 10))
    b = pb.load("B", (10, 10))
    c = pb.assign("C", a + b)  # locks A(r)/B(r)
    d = pb.assign("D", c + a)
    e = pb.assign("E", a.T * d)  # forces a paid repartition of A^T
    g = pb.load("G", (1000, 10))
    pb.output(pb.assign("F", g @ a))  # RMM2 wants A broadcast
    pb.output(e)
    return pb.build()


class TestPullUpBroadcast:
    def test_partition_converted_to_broadcast_extract(self):
        plan = plan_for(pull_up_program(), pull_up_broadcast=True)
        assert partition_steps(plan, "A") == []
        assert len(broadcast_steps(plan, "A")) == 1
        extracts = [
            s
            for s in plan.steps
            if isinstance(s, ExtendedStep) and s.kind == "extract" and s.source.name == "A"
        ]
        assert extracts, "the pulled-up replica must be extracted locally"

    def test_without_pull_up_both_costs_paid(self):
        plan = plan_for(pull_up_program(), pull_up_broadcast=False)
        assert len(partition_steps(plan, "A")) == 1
        assert len(broadcast_steps(plan, "A")) == 1

    def test_pull_up_reduces_predicted_bytes(self):
        with_h = plan_for(pull_up_program(), pull_up_broadcast=True)
        without_h = plan_for(pull_up_program(), pull_up_broadcast=False)
        assert with_h.predicted_bytes < without_h.predicted_bytes

    def test_pull_up_plan_still_correct(self, rng):
        program = pull_up_program()
        arrays = {
            "A": rng.random((10, 10)),
            "B": rng.random((10, 10)),
            "G": rng.random((1000, 10)),
        }
        results = {}
        for flag in (True, False):
            plan = schedule_stages(plan_for(program, pull_up_broadcast=flag))
            ctx = ClusterContext(ClusterConfig(num_workers=4, block_size=5))
            results[flag] = PlanExecutor(ctx, 5).execute(plan, arrays)
        f_true = results[True].matrices["F"]
        f_false = results[False].matrices["F"]
        expected = arrays["G"] @ arrays["A"]
        np.testing.assert_allclose(f_true, expected, atol=1e-9)
        np.testing.assert_allclose(f_false, expected, atol=1e-9)
        assert results[True].comm_bytes < results[False].comm_bytes


class TestPaperClaims:
    def test_linreg_partitions_v_once_for_whole_program(self):
        """Section 6.5: 'the input matrix V only needs to be partitioned once
        through the whole computation process'."""
        from repro.programs import build_linreg_program

        program = build_linreg_program((400, 50), 0.05, iterations=5)
        plan = plan_for(program)
        assert len(partition_steps(plan, "V")) == 0
        assert len(broadcast_steps(plan, "V")) == 0

    def test_gnmf_cellwise_ops_are_comm_free(self):
        """Section 6.2: the H * (WtV) / (WtWH) phase runs without any
        communication in DMac."""
        from repro.core.plan import CellwiseStep
        from repro.programs import build_gnmf_program

        program = build_gnmf_program((64, 48), 0.1, factors=4, iterations=2)
        plan = schedule_stages(plan_for(program))
        for step in plan.steps:
            if isinstance(step, CellwiseStep):
                assert not step.communicates

    def test_pagerank_link_never_moves_after_load(self):
        """Section 6.4: only the small rank vector travels each iteration;
        the link matrix is cached in one scheme."""
        from repro.programs import build_pagerank_program

        program = build_pagerank_program(256, 0.05, iterations=5)
        plan = plan_for(program)
        assert partition_steps(plan, "link") == []
        assert broadcast_steps(plan, "link") == []

    def test_gnmf_dmac_beats_systemml_prediction(self):
        """The whole point: dependency-aware planning moves far less data."""
        from repro.core.estimator import SizeEstimator
        from repro.core.strategies import candidate_strategies
        from repro.programs import build_gnmf_program

        program = build_gnmf_program((128, 96), 0.05, factors=8, iterations=3)
        dmac_plan = plan_for(program)
        # SystemML-S lower bound: every matmul input repartitions.
        estimator = SizeEstimator(program)
        from repro.lang.program import MatMulOp

        baseline_bytes = sum(
            min(
                sum(
                    4 * estimator.nbytes(operand.name)
                    if scheme is Scheme.BROADCAST
                    else estimator.nbytes(operand.name)
                    for operand, scheme in zip(op.matrix_inputs(), s.input_schemes)
                )
                for s in candidate_strategies(op)
            )
            for op in program.ops
            if isinstance(op, MatMulOp)
        )
        assert dmac_plan.predicted_bytes < baseline_bytes / 2
