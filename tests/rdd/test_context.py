"""Tests for ClusterContext, partitioners and the sizeof model."""

import numpy as np
import pytest

from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock
from repro.config import ClusterConfig
from repro.errors import ClusterError, SchemeError
from repro.rdd.context import ClusterContext
from repro.rdd.partitioner import ColumnPartitioner, HashPartitioner, RowPartitioner
from repro.rdd.sizeof import model_sizeof


class TestPartitioners:
    def test_row_partitioner(self):
        p = RowPartitioner(4)
        assert p.partition_for((5, 3)) == 1
        assert p.partition_for((8, 0)) == 0

    def test_column_partitioner(self):
        p = ColumnPartitioner(4)
        assert p.partition_for((5, 3)) == 3

    def test_hash_partitioner_in_range(self):
        p = HashPartitioner(4)
        assert all(0 <= p.partition_for((i, j)) < 4 for i in range(8) for j in range(8))

    def test_equality_by_type_and_count(self):
        assert RowPartitioner(4) == RowPartitioner(4)
        assert RowPartitioner(4) != RowPartitioner(8)
        assert RowPartitioner(4) != ColumnPartitioner(4)

    def test_hashable(self):
        assert len({RowPartitioner(4), RowPartitioner(4), ColumnPartitioner(4)}) == 2

    def test_rejects_zero_partitions(self):
        with pytest.raises(SchemeError):
            RowPartitioner(0)


class TestContext:
    def test_worker_for_partition_wraps(self):
        ctx = ClusterContext(ClusterConfig(num_workers=4))
        assert ctx.worker_for_partition(0) == 0
        assert ctx.worker_for_partition(5) == 1

    def test_worker_for_partition_rejects_negative(self):
        ctx = ClusterContext(ClusterConfig(num_workers=4))
        with pytest.raises(ClusterError):
            ctx.worker_for_partition(-1)

    def test_one_engine_per_worker(self):
        ctx = ClusterContext(ClusterConfig(num_workers=3, threads_per_worker=5))
        assert len(ctx.engines) == 3
        assert all(e.threads == 5 for e in ctx.engines)

    def test_transfer_advances_clock(self):
        ctx = ClusterContext(ClusterConfig(num_workers=4))
        ctx.transfer("shuffle", 125_000_000)
        assert ctx.clock.elapsed.network_seconds == pytest.approx(1.0)

    def test_charge_compute_since(self):
        ctx = ClusterContext(ClusterConfig(num_workers=2, threads_per_worker=1))
        snapshot = ctx.flops_snapshot()
        ctx.engines[0].stats.record(int(2e9), sparse=False)
        ctx.charge_compute_since(snapshot)
        assert ctx.clock.elapsed.compute_seconds == pytest.approx(1.0)

    def test_reset_metrics(self):
        ctx = ClusterContext(ClusterConfig(num_workers=4))
        ctx.transfer("shuffle", 100)
        ctx.reset_metrics()
        assert ctx.ledger.total_bytes == 0
        assert ctx.clock.elapsed_seconds == 0.0

    def test_config_validation(self):
        with pytest.raises(ClusterError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ClusterError):
            ClusterConfig(threads_per_worker=0)
        with pytest.raises(ClusterError):
            ClusterConfig(block_size=0)
        for limit in (0, -1):
            with pytest.raises(ClusterError, match="memory_limit_bytes must be >= 1"):
                ClusterConfig(memory_limit_bytes=limit)


class TestSizeof:
    def test_blocks_use_model_bytes(self):
        dense = DenseBlock.zeros(10, 10)
        assert model_sizeof(dense) == dense.model_nbytes
        sparse = CSCBlock.empty(10, 10)
        assert model_sizeof(sparse) == sparse.model_nbytes

    def test_ndarray(self):
        assert model_sizeof(np.zeros((5, 4))) == 4 * 20

    def test_scalars(self):
        assert model_sizeof(3.5) == 8
        assert model_sizeof(7) == 8

    def test_containers_sum(self):
        assert model_sizeof([1.0, 2.0]) == 16
        assert model_sizeof({(0, 0): 1.0}) == 24  # key tuple (8+8) + value 8
