"""Property-based tests for the RDD substrate (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.rdd.context import ClusterContext
from repro.rdd.partitioner import ColumnPartitioner, HashPartitioner, RowPartitioner
from repro.rdd.sizeof import RECORD_OVERHEAD_BYTES, model_sizeof


@st.composite
def keyed_items(draw):
    n = draw(st.integers(0, 40))
    return [
        (
            (draw(st.integers(0, 9)), draw(st.integers(0, 9))),
            float(draw(st.integers(-100, 100))),
        )
        for __ in range(n)
    ]


partitioners = st.sampled_from(
    [RowPartitioner, ColumnPartitioner, HashPartitioner]
)


@given(keyed_items(), partitioners, st.integers(1, 6))
def test_shuffle_conserves_records(items, partitioner_cls, workers):
    ctx = ClusterContext(ClusterConfig(num_workers=workers))
    rdd = ctx.parallelize(items, HashPartitioner(workers))
    result = rdd.partition_by(partitioner_cls(workers))
    assert sorted(result.collect()) == sorted(items)


@given(keyed_items(), partitioners, st.integers(1, 6))
def test_shuffle_places_by_partitioner(items, partitioner_cls, workers):
    ctx = ClusterContext(ClusterConfig(num_workers=workers))
    partitioner = partitioner_cls(workers)
    rdd = ctx.parallelize(items, HashPartitioner(workers)).partition_by(partitioner)
    for index in range(workers):
        for key, __ in rdd.partition(index):
            assert partitioner.partition_for(key) == index


@given(keyed_items(), st.integers(1, 6))
def test_metered_bytes_bounded_by_payload(items, workers):
    """A shuffle can never move more than the whole dataset plus framing."""
    ctx = ClusterContext(ClusterConfig(num_workers=workers))
    rdd = ctx.parallelize(items, RowPartitioner(workers))
    total_payload = sum(
        model_sizeof(value) + RECORD_OVERHEAD_BYTES for __, value in items
    )
    before = ctx.ledger.snapshot()
    rdd.partition_by(ColumnPartitioner(workers))
    moved = ctx.ledger.snapshot() - before
    assert 0 <= moved <= total_payload


@given(keyed_items(), st.integers(1, 6))
def test_repeated_shuffle_to_same_partitioner_is_idempotent(items, workers):
    ctx = ClusterContext(ClusterConfig(num_workers=workers))
    rdd = ctx.parallelize(items, HashPartitioner(workers))
    once = rdd.partition_by(RowPartitioner(workers))
    before = ctx.ledger.snapshot()
    twice = once.partition_by(RowPartitioner(workers))
    assert twice is once
    assert ctx.ledger.snapshot() == before


@given(keyed_items(), st.integers(2, 6))
def test_single_worker_shuffles_are_free(items, workers):
    solo = ClusterContext(ClusterConfig(num_workers=1))
    rdd = solo.parallelize(items, RowPartitioner(1))
    rdd.partition_by(ColumnPartitioner(1)).partition_by(HashPartitioner(1))
    assert solo.ledger.total_bytes == 0
