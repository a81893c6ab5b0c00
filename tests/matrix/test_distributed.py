"""Tests for DistributedMatrix construction and views."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blocks import CoordinateMatrix
from repro.config import ClusterConfig
from repro.errors import ShapeError
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from tests.blocks.test_coordinate import assert_same_block, inf_minus_inf, triples
from tests.conftest import random_sparse


@pytest.fixture
def ctx():
    return ClusterContext(ClusterConfig(num_workers=4, threads_per_worker=1))


class TestFromNumpy:
    def test_roundtrip_row(self, ctx, rng):
        array = rng.random((20, 12))
        mat = DistributedMatrix.from_numpy(ctx, array, 4, Scheme.ROW)
        np.testing.assert_array_equal(mat.to_numpy(), array)

    def test_roundtrip_col(self, ctx, rng):
        array = rng.random((20, 12))
        mat = DistributedMatrix.from_numpy(ctx, array, 4, Scheme.COL)
        np.testing.assert_array_equal(mat.to_numpy(), array)

    def test_load_1d_is_free(self, ctx, rng):
        DistributedMatrix.from_numpy(ctx, rng.random((8, 8)), 4, Scheme.ROW)
        assert ctx.ledger.total_bytes == 0

    def test_load_broadcast_charges(self, ctx, rng):
        DistributedMatrix.from_numpy(ctx, rng.random((8, 8)), 4, Scheme.BROADCAST)
        assert ctx.ledger.bytes_by_kind().get("broadcast", 0) > 0

    def test_empty_blocks_dropped(self, ctx):
        array = np.zeros((8, 8))
        array[0, 0] = 1.0
        mat = DistributedMatrix.from_numpy(ctx, array, 4, Scheme.ROW)
        assert len(mat.driver_grid()) == 1
        np.testing.assert_array_equal(mat.to_numpy(), array)

    def test_row_placement_invariant(self, ctx, rng):
        mat = DistributedMatrix.from_numpy(ctx, rng.random((32, 32)), 4, Scheme.ROW)
        for p in range(4):
            for (i, __), __b in mat.rdd.partition(p):
                assert i % 4 == p

    def test_rejects_bad_dims(self, ctx):
        with pytest.raises(ShapeError):
            DistributedMatrix(ctx, None, 0, 5, 4, Scheme.ROW)
        with pytest.raises(ShapeError):
            DistributedMatrix(ctx, None, 5, 5, 0, Scheme.ROW)


class TestCoordinateInput:
    """Loading a coordinate matrix yields the partitions loading its dense
    form yields -- the guarantee every golden book rests on."""

    @inf_minus_inf
    @given(
        triples(),
        st.integers(1, 6),
        st.sampled_from([Scheme.ROW, Scheme.COL, Scheme.BROADCAST]),
        st.sampled_from(["auto", "dense", "sparse"]),
    )
    def test_same_partitions_and_same_charge(self, data, block_size, scheme, storage):
        matrix = CoordinateMatrix(*data)
        config = ClusterConfig(num_workers=3, threads_per_worker=1)
        sparse_ctx, dense_ctx = ClusterContext(config), ClusterContext(config)
        got = DistributedMatrix.from_numpy(sparse_ctx, matrix, block_size, scheme, storage)
        expected = DistributedMatrix.from_numpy(
            dense_ctx, matrix.to_numpy(), block_size, scheme, storage
        )
        assert (got.shape, got.scheme) == (expected.shape, expected.scheme)
        assert got.rdd.num_partitions == expected.rdd.num_partitions
        for index in range(expected.rdd.num_partitions):
            mine, theirs = got.rdd.partition(index), expected.rdd.partition(index)
            assert [key for key, __ in mine] == [key for key, __ in theirs]
            for (__, block), (__, reference) in zip(mine, theirs):
                assert_same_block(block, reference)
        assert sparse_ctx.ledger.bytes_by_kind() == dense_ctx.ledger.bytes_by_kind()

    def test_all_zero_matrix_has_no_blocks(self, ctx):
        empty = CoordinateMatrix([], [], [], (9, 5))
        mat = DistributedMatrix.from_numpy(ctx, empty, 4)
        assert mat.driver_grid() == {}
        assert not mat.to_numpy().any()


class TestRandom:
    def test_deterministic_by_seed(self, ctx):
        a = DistributedMatrix.random(ctx, 10, 10, 4, seed=7)
        b = DistributedMatrix.random(ctx, 10, 10, 4, seed=7)
        np.testing.assert_array_equal(a.to_numpy(), b.to_numpy())

    def test_different_seeds_differ(self, ctx):
        a = DistributedMatrix.random(ctx, 10, 10, 4, seed=1)
        b = DistributedMatrix.random(ctx, 10, 10, 4, seed=2)
        assert not np.array_equal(a.to_numpy(), b.to_numpy())


class TestViews:
    def test_worker_grid_partitions_data(self, ctx, rng):
        array = rng.random((32, 8))
        mat = DistributedMatrix.from_numpy(ctx, array, 4, Scheme.ROW)
        all_keys = set()
        for w in range(4):
            keys = set(mat.worker_grid(w))
            assert not (keys & all_keys)
            all_keys |= keys
        assert all_keys == set(mat.driver_grid())

    def test_broadcast_worker_grid_is_full(self, ctx, rng):
        array = rng.random((16, 16))
        mat = DistributedMatrix.from_numpy(ctx, array, 4, Scheme.BROADCAST)
        for w in range(4):
            assert len(mat.worker_grid(w)) == 16

    def test_driver_grid_dedups_broadcast(self, ctx, rng):
        array = rng.random((16, 16))
        mat = DistributedMatrix.from_numpy(ctx, array, 4, Scheme.BROADCAST)
        assert len(mat.driver_grid()) == 16
        np.testing.assert_array_equal(mat.to_numpy(), array)


class TestStatistics:
    def test_nnz_and_sparsity(self, ctx, rng):
        array = random_sparse(rng, 20, 20, 0.2)
        mat = DistributedMatrix.from_numpy(ctx, array, 4)
        assert mat.nnz() == np.count_nonzero(array)
        assert mat.sparsity() == pytest.approx(np.count_nonzero(array) / 400)

    def test_is_sparse_detection(self, ctx, rng):
        sparse = DistributedMatrix.from_numpy(ctx, random_sparse(rng, 16, 16, 0.05), 4)
        dense = DistributedMatrix.from_numpy(ctx, rng.random((16, 16)), 4)
        assert sparse.is_sparse()
        assert not dense.is_sparse()

    def test_value_on_1x1(self, ctx):
        mat = DistributedMatrix.from_numpy(ctx, np.array([[3.5]]), 4)
        assert mat.value() == 3.5

    def test_value_rejects_larger(self, ctx, rng):
        mat = DistributedMatrix.from_numpy(ctx, rng.random((2, 2)), 4)
        with pytest.raises(ShapeError):
            mat.value()

    def test_block_grid_shape(self, ctx, rng):
        mat = DistributedMatrix.from_numpy(ctx, rng.random((10, 7)), 4)
        assert mat.block_grid_shape == (3, 2)
