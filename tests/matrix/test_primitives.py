"""Tests for the physical distributed-matrix primitives: correctness,
communication accounting, and placement invariants."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import SchemeError, ShapeError
from repro.matrix import primitives as prim
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from tests.conftest import random_sparse


@pytest.fixture
def ctx():
    return ClusterContext(ClusterConfig(num_workers=4, threads_per_worker=1))


def dist(ctx, array, scheme=Scheme.ROW, block=4):
    return DistributedMatrix.from_numpy(ctx, array, block, scheme)


class TestRepartition:
    def test_row_to_col(self, ctx, rng):
        array = rng.random((16, 16))
        out = prim.repartition(dist(ctx, array), Scheme.COL)
        assert out.scheme is Scheme.COL
        np.testing.assert_array_equal(out.to_numpy(), array)

    def test_meters_bytes(self, ctx, rng):
        mat = dist(ctx, rng.random((16, 16)))
        prim.repartition(mat, Scheme.COL)
        assert ctx.ledger.total_bytes > 0

    def test_same_scheme_is_free_reference(self, ctx, rng):
        mat = dist(ctx, rng.random((16, 16)))
        out = prim.repartition(mat, Scheme.ROW)
        assert out is mat
        assert ctx.ledger.total_bytes == 0

    def test_placement_after_repartition(self, ctx, rng):
        out = prim.repartition(dist(ctx, rng.random((32, 32))), Scheme.COL)
        for p in range(4):
            for (__, j), __b in out.rdd.partition(p):
                assert j % 4 == p

    def test_rejects_broadcast_source(self, ctx, rng):
        mat = prim.broadcast_matrix(dist(ctx, rng.random((8, 8))))
        with pytest.raises(SchemeError):
            prim.repartition(mat, Scheme.ROW)

    def test_rejects_broadcast_target(self, ctx, rng):
        with pytest.raises(SchemeError):
            prim.repartition(dist(ctx, rng.random((8, 8))), Scheme.BROADCAST)

    def test_moved_bytes_at_most_matrix_size(self, ctx, rng):
        """The cost model's |A| is an upper bound on the physical shuffle."""
        array = rng.random((32, 32))
        mat = dist(ctx, array)
        size = mat.model_nbytes()
        prim.repartition(mat, Scheme.COL)
        assert ctx.ledger.total_bytes <= size * 1.2  # + record framing


class TestBroadcastAndExtract:
    def test_broadcast_replicates(self, ctx, rng):
        array = rng.random((16, 16))
        out = prim.broadcast_matrix(dist(ctx, array))
        assert out.scheme is Scheme.BROADCAST
        for w in range(4):
            assert len(out.worker_grid(w)) == len(out.driver_grid())
        np.testing.assert_array_equal(out.to_numpy(), array)

    def test_broadcast_charges_k_minus_1_copies(self, ctx, rng):
        mat = dist(ctx, rng.random((16, 16)))
        size = mat.model_nbytes()
        prim.broadcast_matrix(mat)
        assert ctx.ledger.total_bytes == 3 * size

    def test_broadcast_idempotent(self, ctx, rng):
        mat = prim.broadcast_matrix(dist(ctx, rng.random((8, 8))))
        mark = ctx.ledger.snapshot()
        assert prim.broadcast_matrix(mat) is mat
        assert ctx.ledger.snapshot() == mark

    def test_extract_is_free(self, ctx, rng):
        array = rng.random((16, 16))
        replica = prim.broadcast_matrix(dist(ctx, array))
        mark = ctx.ledger.snapshot()
        out = prim.extract(replica, Scheme.COL)
        assert ctx.ledger.snapshot() == mark
        assert out.scheme is Scheme.COL
        np.testing.assert_array_equal(out.to_numpy(), array)

    def test_extract_placement(self, ctx, rng):
        replica = prim.broadcast_matrix(dist(ctx, rng.random((32, 32))))
        out = prim.extract(replica, Scheme.ROW)
        for p in range(4):
            for (i, __), __b in out.rdd.partition(p):
                assert i % 4 == p

    def test_extract_requires_broadcast(self, ctx, rng):
        with pytest.raises(SchemeError):
            prim.extract(dist(ctx, rng.random((8, 8))), Scheme.COL)

    def test_extract_rejects_broadcast_target(self, ctx, rng):
        replica = prim.broadcast_matrix(dist(ctx, rng.random((8, 8))))
        with pytest.raises(SchemeError):
            prim.extract(replica, Scheme.BROADCAST)


class TestLocalTranspose:
    def test_row_becomes_col(self, ctx, rng):
        array = rng.random((12, 20))
        out = prim.local_transpose(dist(ctx, array))
        assert out.scheme is Scheme.COL
        assert out.shape == (20, 12)
        np.testing.assert_array_equal(out.to_numpy(), array.T)

    def test_col_becomes_row(self, ctx, rng):
        array = rng.random((12, 20))
        out = prim.local_transpose(dist(ctx, array, Scheme.COL))
        assert out.scheme is Scheme.ROW
        np.testing.assert_array_equal(out.to_numpy(), array.T)

    def test_broadcast_stays_broadcast(self, ctx, rng):
        array = rng.random((8, 8))
        replica = prim.broadcast_matrix(dist(ctx, array))
        out = prim.local_transpose(replica)
        assert out.scheme is Scheme.BROADCAST
        np.testing.assert_array_equal(out.to_numpy(), array.T)

    def test_is_free(self, ctx, rng):
        mat = dist(ctx, rng.random((16, 16)))
        mark = ctx.ledger.snapshot()
        prim.local_transpose(mat)
        assert ctx.ledger.snapshot() == mark

    def test_blocks_stay_on_their_worker(self, ctx, rng):
        mat = dist(ctx, rng.random((32, 32)))
        out = prim.local_transpose(mat)
        # transposed block (j, i) under Column scheme maps back to worker i%K
        for p in range(4):
            for (__, i), __b in out.rdd.partition(p):
                assert i % 4 == p


class TestMultiplicationStrategies:
    def test_rmm1(self, ctx, rng):
        a, b = rng.random((16, 12)), rng.random((12, 8))
        replica = prim.broadcast_matrix(dist(ctx, a))
        cols = dist(ctx, b, Scheme.COL)
        mark = ctx.ledger.snapshot()
        out = prim.rmm1(replica, cols)
        assert ctx.ledger.snapshot() == mark  # RMM itself is comm-free
        assert out.scheme is Scheme.COL
        np.testing.assert_allclose(out.to_numpy(), a @ b, atol=1e-9)

    def test_rmm2(self, ctx, rng):
        a, b = rng.random((16, 12)), rng.random((12, 8))
        rows = dist(ctx, a, Scheme.ROW)
        replica = prim.broadcast_matrix(dist(ctx, b))
        mark = ctx.ledger.snapshot()
        out = prim.rmm2(rows, replica)
        assert ctx.ledger.snapshot() == mark
        assert out.scheme is Scheme.ROW
        np.testing.assert_allclose(out.to_numpy(), a @ b, atol=1e-9)

    @pytest.mark.parametrize("out_scheme", [Scheme.ROW, Scheme.COL])
    def test_cpmm(self, ctx, rng, out_scheme):
        a, b = rng.random((16, 12)), rng.random((12, 8))
        left = dist(ctx, a, Scheme.COL)
        right = dist(ctx, b, Scheme.ROW)
        mark = ctx.ledger.snapshot()
        out = prim.cpmm(left, right, out_scheme)
        assert ctx.ledger.snapshot() > mark  # aggregation shuffles
        assert out.scheme is out_scheme
        np.testing.assert_allclose(out.to_numpy(), a @ b, atol=1e-9)

    def test_cpmm_sparse_inputs(self, ctx, rng):
        a = random_sparse(rng, 16, 12, 0.2)
        b = random_sparse(rng, 12, 8, 0.3)
        out = prim.cpmm(dist(ctx, a, Scheme.COL), dist(ctx, b, Scheme.ROW))
        np.testing.assert_allclose(out.to_numpy(), a @ b, atol=1e-9)

    def test_strategies_agree(self, ctx, rng):
        a, b = rng.random((16, 12)), rng.random((12, 8))
        r1 = prim.rmm1(prim.broadcast_matrix(dist(ctx, a)), dist(ctx, b, Scheme.COL))
        r2 = prim.rmm2(dist(ctx, a), prim.broadcast_matrix(dist(ctx, b)))
        r3 = prim.cpmm(dist(ctx, a, Scheme.COL), dist(ctx, b, Scheme.ROW))
        np.testing.assert_allclose(r1.to_numpy(), r2.to_numpy(), atol=1e-9)
        np.testing.assert_allclose(r1.to_numpy(), r3.to_numpy(), atol=1e-9)

    def test_rmm1_requires_schemes(self, ctx, rng):
        a = dist(ctx, rng.random((8, 8)))
        b = dist(ctx, rng.random((8, 8)), Scheme.COL)
        with pytest.raises(SchemeError):
            prim.rmm1(a, b)  # a not broadcast

    def test_shape_mismatch(self, ctx, rng):
        a = prim.broadcast_matrix(dist(ctx, rng.random((8, 6))))
        b = dist(ctx, rng.random((8, 8)), Scheme.COL)
        with pytest.raises(ShapeError):
            prim.rmm1(a, b)

    def test_block_size_mismatch(self, ctx, rng):
        a = prim.broadcast_matrix(dist(ctx, rng.random((8, 8)), block=4))
        b = dist(ctx, rng.random((8, 8)), Scheme.COL, block=2)
        with pytest.raises(ShapeError):
            prim.rmm1(a, b)

    def test_flops_attributed_to_workers(self, ctx, rng):
        a, b = rng.random((16, 12)), rng.random((12, 8))
        prim.rmm1(prim.broadcast_matrix(dist(ctx, a)), dist(ctx, b, Scheme.COL))
        assert sum(e.stats.flops for e in ctx.engines) > 0


def _blocks(matrix):
    """One replica's blocks as ``{key: (class, bytes)}``: equal only if the
    two products agree bit for bit, storage class included."""
    return {
        key: (type(block).__name__, block.to_numpy().tobytes())
        for key, block in matrix.driver_grid().items()
    }


class TestReplicatedProduct:
    """``bmm``: the product of two replicas, itself a replica."""

    CASES = {
        "dense": lambda rng: (rng.random((16, 12)), rng.random((12, 8)), 4),
        "csc": lambda rng: (
            random_sparse(rng, 16, 12, 0.1), random_sparse(rng, 12, 8, 0.2), 4
        ),
        "ragged": lambda rng: (rng.random((15, 11)), rng.random((11, 9)), 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bmm_is_rmm1_bit_for_bit(self, ctx, rng, case):
        a, b, block = self.CASES[case](rng)
        left = prim.broadcast_matrix(dist(ctx, a, block=block))
        if case == "csc":
            assert any(blk.is_sparse for blk in left.driver_grid().values())
        expected = prim.rmm1(left, dist(ctx, b, Scheme.COL, block=block))
        out = prim.bmm(left, prim.broadcast_matrix(dist(ctx, b, block=block)))
        assert out.scheme is Scheme.BROADCAST
        assert _blocks(out) == _blocks(expected)
        # Every worker holds the same whole replica.
        for worker in range(ctx.num_workers):
            assert out.worker_grid(worker).keys() == out.driver_grid().keys()

    def test_bmm_moves_nothing_and_books_n_products(self, ctx, rng):
        a, b = rng.random((16, 12)), rng.random((12, 8))
        left = prim.broadcast_matrix(dist(ctx, a))
        right = prim.broadcast_matrix(dist(ctx, b))
        before = [engine.stats.flops for engine in ctx.engines]
        mark = ctx.ledger.snapshot()
        prim.bmm(left, right)
        assert ctx.ledger.snapshot() == mark
        booked = [e.stats.flops - f for e, f in zip(ctx.engines, before)]
        assert booked == [2 * 16 * 12 * 8] * ctx.num_workers

    def test_bmm_requires_replicas(self, ctx, rng):
        a = prim.broadcast_matrix(dist(ctx, rng.random((8, 8))))
        with pytest.raises(SchemeError):
            prim.bmm(a, dist(ctx, rng.random((8, 8)), Scheme.COL))


class TestCellwiseAndScalar:
    @pytest.mark.parametrize("op", ["add", "subtract", "multiply", "divide"])
    def test_cellwise_row_aligned(self, ctx, rng, op):
        a, b = rng.random((12, 8)), rng.random((12, 8)) + 0.5
        out = prim.cellwise_op(op, dist(ctx, a), dist(ctx, b))
        expected = {"add": a + b, "subtract": a - b, "multiply": a * b, "divide": a / b}
        np.testing.assert_allclose(out.to_numpy(), expected[op], atol=1e-12)

    def test_cellwise_is_free(self, ctx, rng):
        a, b = dist(ctx, rng.random((8, 8))), dist(ctx, rng.random((8, 8)))
        mark = ctx.ledger.snapshot()
        prim.cellwise_op("add", a, b)
        assert ctx.ledger.snapshot() == mark

    def test_cellwise_broadcast_aligned(self, ctx, rng):
        a, b = rng.random((8, 8)), rng.random((8, 8))
        ba = prim.broadcast_matrix(dist(ctx, a))
        bb = prim.broadcast_matrix(dist(ctx, b))
        out = prim.cellwise_op("multiply", ba, bb)
        assert out.scheme is Scheme.BROADCAST
        np.testing.assert_allclose(out.to_numpy(), a * b)

    def test_cellwise_rejects_misaligned_schemes(self, ctx, rng):
        a = dist(ctx, rng.random((8, 8)), Scheme.ROW)
        b = dist(ctx, rng.random((8, 8)), Scheme.COL)
        with pytest.raises(SchemeError):
            prim.cellwise_op("add", a, b)

    def test_cellwise_rejects_shape_mismatch(self, ctx, rng):
        a = dist(ctx, rng.random((8, 8)))
        b = dist(ctx, rng.random((8, 6)))
        with pytest.raises(ShapeError):
            prim.cellwise_op("add", a, b)

    def test_scalar_op(self, ctx, rng):
        a = rng.random((8, 8))
        out = prim.scalar_op_matrix("multiply", dist(ctx, a), 3.0)
        assert out.scheme is Scheme.ROW
        np.testing.assert_allclose(out.to_numpy(), a * 3.0)

    def test_scalar_op_on_broadcast(self, ctx, rng):
        a = rng.random((8, 8))
        replica = prim.broadcast_matrix(dist(ctx, a))
        out = prim.scalar_op_matrix("add", replica, 1.0)
        assert out.scheme is Scheme.BROADCAST
        np.testing.assert_allclose(out.to_numpy(), a + 1.0)

    def test_aggregations(self, ctx, rng):
        a = random_sparse(rng, 12, 12, 0.4)
        mat = dist(ctx, a)
        assert prim.matrix_sum(mat) == pytest.approx(a.sum())
        assert prim.matrix_sq_sum(mat) == pytest.approx((a * a).sum())

    def test_aggregation_on_broadcast_counts_once(self, ctx, rng):
        a = rng.random((8, 8))
        replica = prim.broadcast_matrix(dist(ctx, a))
        assert prim.matrix_sum(replica) == pytest.approx(a.sum())
