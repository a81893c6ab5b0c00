"""Tests for the row/column aggregation operators across the whole stack."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.estimator import SizeEstimator
from repro.core.plan import RowAggStep
from repro.core.planner import DMacPlanner
from repro.errors import ProgramError
from repro.lang.program import ProgramBuilder
from repro.session import DMacSession
from tests.conftest import random_sparse


def session():
    return DMacSession(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=6))


class TestLanguage:
    def test_row_sums_shape(self):
        pb = ProgramBuilder()
        a = pb.load("A", (10, 7))
        out = pb.assign("R", a.row_sums())
        assert pb.build().dims[out.name] == (10, 1)

    def test_col_sums_shape(self):
        pb = ProgramBuilder()
        a = pb.load("A", (10, 7))
        out = pb.assign("C", a.col_sums())
        assert pb.build().dims[out.name] == (1, 7)

    def test_transposed_operand_shape(self):
        pb = ProgramBuilder()
        a = pb.load("A", (10, 7))
        out = pb.assign("R", a.T.row_sums())
        assert pb.build().dims[out.name] == (7, 1)

    def test_bad_kind_rejected(self):
        from repro.lang.expr import RowAggExpr, MatrixRefExpr

        with pytest.raises(ProgramError):
            RowAggExpr("diag", MatrixRefExpr("A"))


class TestEstimator:
    def test_union_bound(self):
        pb = ProgramBuilder()
        a = pb.load("A", (10, 5), sparsity=0.1)
        pb.output(pb.assign("R", a.row_sums()))
        est = SizeEstimator(pb.build())
        # each of the 5 entries in a row is non-zero with prob <= 0.1
        assert est.sparsity(pb.build().bindings["R"]) == pytest.approx(0.5)

    def test_caps_at_one(self):
        pb = ProgramBuilder()
        a = pb.load("A", (10, 50), sparsity=0.1)
        pb.output(pb.assign("R", a.row_sums()))
        assert SizeEstimator(pb.build()).sparsity("R") == 1.0


class TestPlanner:
    def test_aligned_input_is_free(self):
        pb = ProgramBuilder()
        a = pb.load("A", (24, 24))
        b = pb.load("B", (24, 24))
        pb.assign("C", a + b)  # locks A to a 1-D scheme
        pb.output(pb.assign("R", a.row_sums()))
        plan = DMacPlanner(pb.build(), 4).plan()
        step = next(s for s in plan.steps if isinstance(s, RowAggStep))
        assert not step.communicates
        assert plan.predicted_bytes == 0

    def test_opposed_prefers_cheap_partial_shuffle(self):
        """col_sums on a Row-locked matrix: repartitioning the whole matrix
        costs |A|; the opposed strategy only shuffles the tiny partial-sum
        vector, so the planner picks it."""
        pb = ProgramBuilder()
        a = pb.load("A", (24, 24))
        b = pb.load("B", (24, 24))
        pb.assign("C", a + b)  # locks A(r)
        pb.output(pb.assign("R", a.row_sums()))  # free (aligned)
        pb.output(pb.assign("S", a.col_sums()))  # opposed: partial shuffle
        plan = DMacPlanner(pb.build(), 4).plan()
        agg_steps = [s for s in plan.steps if isinstance(s, RowAggStep)]
        assert sum(s.communicates for s in agg_steps) == 1
        # and the price is the vector's size, far below repartitioning A
        from repro.core.estimator import SizeEstimator

        estimator = SizeEstimator(pb.build())
        assert plan.predicted_bytes < estimator.nbytes("A")

    def test_broadcast_input_served_by_replica(self):
        pb = ProgramBuilder()
        a = pb.load("A", (24, 4))
        g = pb.load("G", (512, 24))
        pb.output(pb.assign("P", g @ a))  # broadcasts the small A
        pb.output(pb.assign("R", a.row_sums()))
        plan = DMacPlanner(pb.build(), 4).plan()
        step = next(s for s in plan.steps if isinstance(s, RowAggStep))
        assert not step.communicates  # replica or original serves it free


class TestExecution:
    @pytest.mark.parametrize("kind", ["row", "col"])
    def test_matches_numpy(self, rng, kind):
        array = random_sparse(rng, 23, 17, 0.3)
        measured = np.count_nonzero(array) / array.size
        pb = ProgramBuilder()
        a = pb.load("A", (23, 17), sparsity=measured)
        expr = a.row_sums() if kind == "row" else a.col_sums()
        pb.output(pb.assign("R", expr))
        result = session().run(pb.build(), {"A": array})
        expected = array.sum(axis=1 if kind == "row" else 0, keepdims=True)
        np.testing.assert_allclose(result.matrices["R"], expected, atol=1e-10)

    def test_systemml_matches(self, rng):
        array = random_sparse(rng, 23, 17, 0.3)
        pb = ProgramBuilder()
        a = pb.load("A", (23, 17), sparsity=0.3)
        pb.output(pb.assign("R", a.row_sums()))
        pb.output(pb.assign("C", a.col_sums()))
        dmac = session().run(pb.build(), {"A": array})
        systemml = session().run_systemml(pb.build(), {"A": array})
        for name in ("R", "C"):
            np.testing.assert_allclose(dmac.matrices[name], systemml.matrices[name])

    def test_usable_downstream(self, rng):
        """Row sums feeding a multiplication: full pipeline composition."""
        array = rng.random((16, 12))
        pb = ProgramBuilder()
        a = pb.load("A", (16, 12))
        r = pb.assign("R", a.row_sums())  # 16 x 1
        pb.output(pb.assign("G", r.T @ a))  # 1 x 12
        result = session().run(pb.build(), {"A": array})
        expected = array.sum(1, keepdims=True).T @ array
        np.testing.assert_allclose(result.matrices["G"], expected, atol=1e-9)

    def test_normalised_pagerank_style(self, rng):
        """rank / rank.sum() -- aggregation to scalar after row aggregation."""
        array = rng.random((1, 20))
        pb = ProgramBuilder()
        a = pb.load("A", (1, 20))
        total = pb.scalar("t", a.sum())
        pb.output(pb.assign("N", a * (1.0 / total)))
        result = session().run(pb.build(), {"A": array})
        np.testing.assert_allclose(result.matrices["N"].sum(), 1.0)


class TestOptimalIntegration:
    def test_rowagg_in_exhaustive_search(self):
        from repro.core.optimal import optimal_cost, paper_cost_of_plan

        pb = ProgramBuilder()
        a = pb.load("A", (24, 24))
        pb.output(pb.assign("R", a.row_sums()))
        pb.output(pb.assign("C", a.col_sums()))
        program = pb.build()
        optimal = optimal_cost(program, 4)
        greedy = paper_cost_of_plan(DMacPlanner(program, 4).plan(), 4)
        # One aggregation is free (aligned with the source scheme); the
        # other pays the N x |vector| partial shuffle at minimum.
        from repro.core.estimator import SizeEstimator

        vector_bytes = SizeEstimator(program).nbytes(program.bindings["C"])
        assert optimal == 4 * vector_bytes
        assert greedy >= optimal
