"""Tests for element-wise unary operators across the stack, and the
logistic-regression application built on them."""

import numpy as np
import pytest

from repro.blocks.dense import DenseBlock
from repro.blocks.ops import UNARY_FUNCS, unary_flops, unary_op
from repro.blocks.sparse import CSCBlock
from repro.config import ClusterConfig
from repro.core.estimator import SizeEstimator
from repro.errors import BlockError, ProgramError
from repro.lang.program import ProgramBuilder
from repro.programs import build_logreg_program
from repro.session import DMacSession
from tests.conftest import random_sparse


def session(block=8):
    return DMacSession(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=block))


class TestBlockKernels:
    @pytest.mark.parametrize("func", UNARY_FUNCS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_numpy(self, rng, func, sparse):
        array = random_sparse(rng, 9, 7, 0.4) + 0.5  # positive (log/sqrt safe)
        block = CSCBlock.from_dense(array) if sparse else DenseBlock(array)
        result = unary_op(func, block)
        reference = {
            "exp": np.exp,
            "log": lambda x: np.where(x != 0, np.log(np.where(x != 0, x, 1.0)), -np.inf),
            "sqrt": np.sqrt,
            "abs": np.abs,
            "sign": np.sign,
            "sigmoid": lambda x: 1 / (1 + np.exp(-x)),
            "reciprocal": lambda x: np.where(x != 0, 1 / np.where(x != 0, x, 1.0), np.inf),
        }[func]
        with np.errstate(divide="ignore"):
            expected = reference(array)
        np.testing.assert_allclose(result.to_numpy(), expected, atol=1e-12)

    @pytest.mark.parametrize("func", ["abs", "sqrt", "sign"])
    def test_zero_preserving_keeps_sparse(self, rng, func):
        block = CSCBlock.from_dense(random_sparse(rng, 8, 8, 0.2))
        assert unary_op(func, block).is_sparse

    @pytest.mark.parametrize("func", ["exp", "sigmoid", "reciprocal"])
    def test_densifying_funcs_return_dense(self, rng, func):
        block = CSCBlock.from_dense(random_sparse(rng, 8, 8, 0.2))
        assert not unary_op(func, block).is_sparse

    def test_exp_of_implicit_zero_is_one(self):
        block = CSCBlock.empty(3, 3)
        np.testing.assert_array_equal(unary_op("exp", block).to_numpy(), np.ones((3, 3)))

    def test_sigmoid_stability_at_extremes(self):
        block = DenseBlock(np.array([[-1000.0, 1000.0]]))
        result = unary_op("sigmoid", block).to_numpy()
        assert result[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert result[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(result).all()

    def test_unknown_func_rejected(self):
        with pytest.raises(BlockError):
            unary_op("tanh", DenseBlock.zeros(2, 2))

    def test_flops(self, rng):
        sparse = CSCBlock.from_dense(random_sparse(rng, 8, 8, 0.25))
        assert unary_flops(sparse, "abs") == sparse.nnz
        assert unary_flops(sparse, "exp") == 64


class TestLanguageAndPlanning:
    def test_expr_methods_build_ops(self):
        from repro.lang.program import UnaryMatrixOp

        pb = ProgramBuilder()
        a = pb.load("A", (4, 4))
        pb.output(pb.assign("B", a.sigmoid().exp()))
        ops = [op for op in pb.build().ops if isinstance(op, UnaryMatrixOp)]
        assert [op.func for op in ops] == ["sigmoid", "exp"]

    def test_unknown_func_rejected_in_expr(self):
        from repro.lang.expr import MatrixRefExpr, UnaryExpr

        with pytest.raises(ProgramError):
            UnaryExpr("tanh", MatrixRefExpr("A"))

    def test_estimator_sparsity(self):
        pb = ProgramBuilder()
        a = pb.load("A", (10, 10), sparsity=0.2)
        pb.assign("P", a.abs())
        pb.output(pb.assign("E", a.exp()))
        est = SizeEstimator(pb.build())
        assert est.sparsity("P") == 0.2  # zero-preserving
        assert est.sparsity("E") == 1.0  # densifies

    def test_unary_is_comm_free_in_plan(self):
        from repro.core.planner import DMacPlanner

        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        pb.output(pb.assign("B", a.sigmoid() * a.exp()))
        plan = DMacPlanner(pb.build(), 4).plan()
        assert plan.predicted_bytes == 0


class TestLogisticRegression:
    def make_data(self, rng, examples=400, features=12):
        design = rng.random((examples, features)) - 0.5
        true_w = rng.normal(size=(features, 1)) * 2
        probabilities = 1 / (1 + np.exp(-(design @ true_w)))
        labels = (rng.random((examples, 1)) < probabilities).astype(float)
        return design, labels, true_w

    def test_matches_numpy_reference(self, rng):
        design, labels, __ = self.make_data(rng)
        program = build_logreg_program(design.shape, 1.0, iterations=5, learning_rate=0.5)
        result = session(block=64).run(program, {"V": design, "y": labels})
        w = np.zeros((design.shape[1], 1))
        for __i in range(5):
            preds = 1 / (1 + np.exp(-(design @ w)))
            w = w - (design.T @ (preds - labels)) * (0.5 / design.shape[0])
        np.testing.assert_allclose(
            result.matrices[program.bindings["w"]], w, atol=1e-8
        )

    def test_learns_signal(self, rng):
        design, labels, true_w = self.make_data(rng, examples=800)
        program = build_logreg_program(design.shape, 1.0, iterations=80, learning_rate=2.0)
        result = session(block=128).run(program, {"V": design, "y": labels})
        learned = result.matrices[program.bindings["w"]]
        correlation = np.corrcoef(learned.ravel(), true_w.ravel())[0, 1]
        assert correlation > 0.9

    def test_error_decreases_with_iterations(self, rng):
        design, labels, __ = self.make_data(rng)
        inputs = {"V": design, "y": labels}
        short = build_logreg_program(design.shape, 1.0, iterations=2)
        long = build_logreg_program(design.shape, 1.0, iterations=30)
        from repro.baselines.rlocal import run_local

        err_short = run_local(short, inputs).scalars["sq_err"]
        err_long = run_local(long, inputs).scalars["sq_err"]
        assert err_long < err_short

    def test_v_never_repartitioned(self):
        from repro.core.plan import ExtendedStep
        from repro.core.planner import DMacPlanner

        program = build_logreg_program((400, 12), 0.2, iterations=6)
        plan = DMacPlanner(program, 4).plan()
        moves = [
            s
            for s in plan.steps
            if isinstance(s, ExtendedStep) and s.communicates and s.source.name == "V"
        ]
        assert moves == []

    def test_dmac_beats_systemml(self, rng):
        design, labels, __ = self.make_data(rng)
        program = build_logreg_program(design.shape, 1.0, iterations=4)
        inputs = {"V": design, "y": labels}
        dmac = session(block=64).run(program, inputs)
        systemml = session(block=64).run_systemml(program, inputs)
        assert dmac.comm_bytes < systemml.comm_bytes
        np.testing.assert_allclose(
            dmac.matrices[program.bindings["w"]],
            systemml.matrices[program.bindings["w"]],
            atol=1e-8,
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ProgramError):
            build_logreg_program((10, 4), 0.5, iterations=0)
        with pytest.raises(ProgramError):
            build_logreg_program((10, 4), 0.5, learning_rate=-1.0)
