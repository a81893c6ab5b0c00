"""Tests for the SystemML-S baseline executor."""

import numpy as np
import pytest

from repro.baselines.systemml import SystemMLSExecutor
from repro.config import ClusterConfig
from repro.core.cost import CostModel
from repro.errors import ExecutionError
from repro.lang.program import MatMulOp, ProgramBuilder
from repro.rdd.context import ClusterContext


@pytest.fixture
def ctx():
    return ClusterContext(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=8))


class TestStrategyChoice:
    def test_costs_are_dependency_blind(self, ctx):
        """Even a perfectly-laid-out input is charged a repartition."""
        pb = ProgramBuilder()
        a = pb.load("A", (100, 100), sparsity=1.0)
        b = pb.load("B", (100, 4), sparsity=1.0)
        pb.output(pb.assign("C", a @ b))
        program = pb.build()
        executor = SystemMLSExecutor(ctx, 8)
        op = next(op for op in program.ops if isinstance(op, MatMulOp))
        strategy = executor.choose_strategy(op, CostModel(program, 4))
        # RMM2 broadcasts the small B: N|B| + |A| beats broadcasting A.
        assert strategy.name == "rmm2"

    def test_prefers_cheapest_broadcast_side(self, ctx):
        pb = ProgramBuilder()
        a = pb.load("A", (4, 100), sparsity=1.0)
        b = pb.load("B", (100, 100), sparsity=1.0)
        pb.output(pb.assign("C", a @ b))
        program = pb.build()
        op = next(op for op in program.ops if isinstance(op, MatMulOp))
        strategy = SystemMLSExecutor(ctx, 8).choose_strategy(op, CostModel(program, 4))
        assert strategy.name == "rmm1"  # broadcast the small A


class TestExecution:
    def test_correctness_gnmf(self, ctx):
        from repro.baselines.rlocal import run_local
        from repro.datasets import sparse_random
        from repro.programs import build_gnmf_program

        program = build_gnmf_program((48, 32), 0.2, factors=4, iterations=2)
        data = sparse_random(48, 32, 0.2, seed=1, ensure_coverage=True)
        result = SystemMLSExecutor(ctx, 8).execute(program, {"V": data})
        reference = run_local(program, {"V": data})
        for name in program.outputs:
            np.testing.assert_allclose(
                result.matrices[name], reference.matrices[name], atol=1e-8
            )

    def test_every_use_pays_even_when_aligned(self, ctx, rng):
        """The defining SystemML-S behaviour: a matrix already in the right
        scheme is still repartitioned (hash-partitioned cache)."""
        pb = ProgramBuilder()
        a = pb.load("A", (32, 32))
        b = pb.load("B", (32, 32))
        c = pb.assign("C", a + b)
        pb.output(pb.assign("D", c + a))  # same schemes again
        result = SystemMLSExecutor(ctx, 8).execute(
            pb.build(), {"A": rng.random((32, 32)), "B": rng.random((32, 32))}
        )
        # DMac's plan for this program is completely communication-free.
        assert result.comm_bytes > 0

    def test_transposed_use_also_pays(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (32, 32))
        b = pb.load("B", (32, 32))
        pb.output(pb.assign("C", a.T + b))
        result = SystemMLSExecutor(ctx, 8).execute(
            pb.build(), {"A": rng.random((32, 32)), "B": rng.random((32, 32))}
        )
        assert result.comm_bytes > 0

    def test_repeated_broadcasts_not_cached(self, ctx, rng):
        """Section 6.4 (CF): 'SystemML-S needs to broadcast matrix R twice'."""
        pb = ProgramBuilder()
        r = pb.load("R", (8, 64))
        x = pb.assign("X", r @ r.T)  # small result
        pb.output(pb.assign("Y", x @ r))
        result = SystemMLSExecutor(ctx, 8).execute(pb.build(), {"R": rng.random((8, 64))})
        broadcasts = result.comm_bytes
        assert broadcasts > 0

    def test_scalars_supported(self, ctx, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        s = pb.scalar("s", a.sum())
        pb.scalar_output(s)
        pb.output(pb.assign("B", a * s))
        array = rng.random((8, 8))
        result = SystemMLSExecutor(ctx, 8).execute(pb.build(), {"A": array})
        assert result.scalars["s"] == pytest.approx(array.sum())

    def test_missing_input_rejected(self, ctx):
        pb = ProgramBuilder()
        pb.output(pb.load("A", (4, 4)))
        with pytest.raises(ExecutionError):
            SystemMLSExecutor(ctx, 8).execute(pb.build(), {})

    def test_oblivious_repartition_from_broadcast_copy(self, ctx, rng):
        """After a broadcast, a later 1-D requirement still re-shuffles from
        one canonical replica (no double counting of replicas)."""
        pb = ProgramBuilder()
        small = pb.load("S", (4, 32))
        big = pb.load("B", (32, 32))
        x = pb.assign("X", small @ big)  # rmm1 broadcasts S
        pb.output(pb.assign("Y", x + x))
        result = SystemMLSExecutor(ctx, 8).execute(
            pb.build(), {"S": rng.random((4, 32)), "B": rng.random((32, 32))}
        )
        np.testing.assert_allclose(
            result.matrices["Y"],
            2 * (np.asarray(result.matrices["Y"]) / 2),
        )
