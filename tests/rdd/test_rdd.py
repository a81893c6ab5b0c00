"""Tests for the RDD substrate: construction, shuffle metering,
partitioner preservation, placement invariants."""

import pytest

from repro.config import ClusterConfig
from repro.errors import ClusterError
from repro.rdd.context import ClusterContext
from repro.rdd.partitioner import ColumnPartitioner, HashPartitioner, RowPartitioner
from repro.rdd.rdd import RDD


@pytest.fixture
def ctx():
    return ClusterContext(ClusterConfig(num_workers=4, threads_per_worker=1))


def block_items(n=6):
    return [((i, j), float(i * 10 + j)) for i in range(n) for j in range(n)]


class TestConstruction:
    def test_parallelize_places_by_partitioner(self, ctx):
        rdd = ctx.parallelize(block_items(), RowPartitioner(4))
        for p in range(4):
            for (i, __), __v in rdd.partition(p):
                assert i % 4 == p

    def test_parallelize_is_free(self, ctx):
        ctx.parallelize(block_items(), RowPartitioner(4))
        assert ctx.ledger.total_bytes == 0

    def test_partitioner_count_mismatch_rejected(self, ctx):
        with pytest.raises(ClusterError):
            RDD(ctx, [[], []], RowPartitioner(4))


class TestPartitionBy:
    def test_same_partitioner_is_noop(self, ctx):
        rdd = ctx.parallelize(block_items(), RowPartitioner(4))
        assert rdd.partition_by(RowPartitioner(4)) is rdd
        assert ctx.ledger.total_bytes == 0

    def test_row_to_column_meters_bytes(self, ctx):
        rdd = ctx.parallelize(block_items(), RowPartitioner(4))
        rdd.partition_by(ColumnPartitioner(4))
        assert ctx.ledger.total_bytes > 0

    def test_row_to_column_placement(self, ctx):
        rdd = ctx.parallelize(block_items(), RowPartitioner(4))
        cols = rdd.partition_by(ColumnPartitioner(4))
        for p in range(4):
            for (__, j), __v in cols.partition(p):
                assert j % 4 == p

    def test_data_preserved_through_shuffle(self, ctx):
        rdd = ctx.parallelize(block_items(), RowPartitioner(4))
        assert sorted(rdd.partition_by(HashPartitioner(4)).collect()) == sorted(
            rdd.collect()
        )

    def test_local_moves_are_free(self, ctx):
        # Single worker: everything is local, shuffle moves zero bytes.
        solo = ClusterContext(ClusterConfig(num_workers=1))
        rdd = solo.parallelize(block_items(), RowPartitioner(1))
        rdd.partition_by(ColumnPartitioner(1))
        assert solo.ledger.total_bytes == 0


class TestGroupJoinActions:
    def test_worker_partitions_unions_hosted(self, ctx):
        # 8 partitions on 4 workers: worker 0 hosts partitions 0 and 4.
        rdd = RDD(ctx, [[((p, 0), float(p))] for p in range(8)], None)
        values = [v for __, v in rdd.worker_partitions(0)]
        assert sorted(values) == [0.0, 4.0]
