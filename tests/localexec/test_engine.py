"""Tests for the per-worker local engine (In-Place vs Buffer, Section 5.3)."""

import numpy as np
import pytest

from repro.blocks import assemble, ops, split
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock
from repro.errors import BlockError, MemoryLimitExceeded
from repro.localexec.engine import LocalEngine
from repro.localexec.pool import MemoryTracker
from repro.localexec.tasks import inplace_matmul_tasks
from tests.conftest import random_sparse


def make_grids(rng, m=20, k=16, n=12, block=5, density=1.0):
    a = random_sparse(rng, m, k, density) if density < 1 else rng.random((m, k))
    b = rng.random((k, n))
    return a, b, split(a, block), split(b, block)


class TestMatmulGrids:
    @pytest.mark.parametrize("inplace", [True, False])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_correctness(self, rng, inplace, threads):
        a, b, ga, gb = make_grids(rng)
        engine = LocalEngine(threads=threads, inplace=inplace)
        gc = engine.matmul_grids(ga, gb)
        np.testing.assert_allclose(assemble(gc, (20, 12), 5), a @ b, atol=1e-9)

    def test_inplace_equals_buffer(self, rng):
        a, b, ga, gb = make_grids(rng, density=0.3)
        inplace = LocalEngine(inplace=True).matmul_grids(ga, gb)
        buffer = LocalEngine(inplace=False).matmul_grids(ga, gb)
        for key in inplace:
            np.testing.assert_allclose(
                inplace[key].to_numpy(), buffer[key].to_numpy(), atol=1e-9
            )

    def test_inplace_peak_memory_not_above_buffer(self, rng):
        __, __, ga, gb = make_grids(rng, m=40, k=40, n=40, block=5)
        peaks = {}
        for inplace in (True, False):
            engine = LocalEngine(inplace=inplace)
            engine.register_grid(ga)
            engine.register_grid(gb)
            engine.matmul_grids(ga, gb)
            peaks[inplace] = engine.tracker.peak_bytes
        assert peaks[True] < peaks[False]

    def test_memory_limit_stops_buffer_mode(self, rng):
        """Reproduces the paper's 'Buffer cannot run Wikipedia' failure mode."""
        __, __, ga, gb = make_grids(rng, m=40, k=40, n=40, block=5)
        limit_probe = LocalEngine(inplace=True)
        limit_probe.matmul_grids(ga, gb)
        limit = limit_probe.tracker.peak_bytes + 100
        # In-Place fits within the limit...
        LocalEngine(inplace=True, memory_limit_bytes=limit).matmul_grids(ga, gb)
        # ...Buffer does not.
        with pytest.raises(MemoryLimitExceeded):
            LocalEngine(inplace=False, memory_limit_bytes=limit).matmul_grids(ga, gb)

    def test_flops_recorded(self, rng):
        __, __, ga, gb = make_grids(rng)
        engine = LocalEngine()
        engine.matmul_grids(ga, gb)
        assert engine.stats.flops > 0
        assert engine.stats.tasks > 0

    def test_sparse_flops_classified(self, rng):
        a, b, __, gb = make_grids(rng)
        ga = split(random_sparse(rng, 20, 16, 0.1), 5, storage="sparse")
        engine = LocalEngine()
        engine.matmul_grids(ga, gb)
        assert engine.stats.sparse_flops > 0

    def test_rejects_zero_threads(self):
        with pytest.raises(BlockError):
            LocalEngine(threads=0)


class TestOtherGridOps:
    def test_cellwise_ops(self, rng):
        a, b = rng.random((12, 10)), rng.random((12, 10)) + 0.5
        ga, gb = split(a, 4), split(b, 4)
        engine = LocalEngine(threads=2)
        for op, expected in [
            ("add", a + b),
            ("subtract", a - b),
            ("multiply", a * b),
            ("divide", a / b),
        ]:
            out = engine.cellwise_grids(op, ga, gb)
            np.testing.assert_allclose(assemble(out, (12, 10), 4), expected)

    def test_cellwise_add_union_of_keys(self, rng):
        a = rng.random((8, 8))
        ga = split(a, 4)
        gb = dict(ga)
        del gb[(0, 0)]  # missing block treated as zero
        out = LocalEngine().cellwise_grids("add", ga, gb)
        expected = a * 2
        expected[:4, :4] = a[:4, :4]
        np.testing.assert_allclose(assemble(out, (8, 8), 4), expected)

    def test_cellwise_multiply_intersection_of_keys(self, rng):
        a = rng.random((8, 8))
        ga = split(a, 4)
        gb = dict(ga)
        del gb[(0, 0)]
        out = LocalEngine().cellwise_grids("multiply", ga, gb)
        assert (0, 0) not in out

    def test_cellwise_divide_requires_denominator(self, rng):
        ga = split(rng.random((8, 8)), 4)
        gb = dict(ga)
        del gb[(0, 0)]
        with pytest.raises(BlockError):
            LocalEngine().cellwise_grids("divide", ga, gb)

    def test_cellwise_subtract_missing_left_negates(self, rng):
        a = rng.random((4, 4))
        out = LocalEngine().cellwise_grids("subtract", {}, split(a, 4))
        np.testing.assert_allclose(assemble(out, (4, 4), 4), -a)

    def test_scalar_grids(self, rng):
        a = rng.random((8, 6))
        out = LocalEngine().scalar_grids("multiply", split(a, 4), 2.5)
        np.testing.assert_allclose(assemble(out, (8, 6), 4), a * 2.5)

    def test_unknown_cellwise_op(self, rng):
        ga = split(rng.random((4, 4)), 4)
        with pytest.raises(BlockError):
            LocalEngine().cellwise_grids("xor", ga, ga)

    def test_register_release_roundtrip(self, rng):
        grid = split(rng.random((8, 8)), 4)
        engine = LocalEngine()
        engine.register_grid(grid)
        before = engine.tracker.current_bytes
        assert before > 0
        engine.release_grid(grid)
        assert engine.tracker.current_bytes == 0


# ---------------------------------------------------------------------------
# The In-Place task's first product is its result block
# ---------------------------------------------------------------------------


class LoggingTracker(MemoryTracker):
    """Every ``allocate`` / ``release`` in call order (a refused allocation
    is logged too: it is the raise point)."""

    def __init__(self, limit_bytes=None):
        super().__init__(limit_bytes)
        self.log = []

    def allocate(self, nbytes):
        self.log.append(("allocate", nbytes))
        super().allocate(nbytes)

    def release(self, nbytes):
        self.log.append(("release", nbytes))
        super().release(nbytes)


def zeros_plus_fold(tracker, task):
    """The In-Place task as it ran before the first product was adopted: a
    zero-filled block charged first, then every product folded onto it."""
    target = DenseBlock.zeros(*task.result_shape)
    tracker.allocate(target.model_nbytes)
    for left, right in task.pairs:
        partial = ops.matmul(left, right)
        tracker.allocate(partial.model_nbytes)
        target.data += partial.data
        tracker.release(partial.model_nbytes)
    return target


#: Zeros of both signs, negatives, infinities and magnitudes whose products
#: underflow: what could put a ``-0.0`` (or a NaN) into a product.
SPECIALS = np.array([0.0, -0.0, -1.0, 1.0, -2.5, np.inf, -np.inf, 1e-300, -1e-300, 3.0])


def special_matrix(rng, rows, cols, density=1.0):
    out = rng.choice(SPECIALS, size=(rows, cols))
    out[rng.random((rows, cols)) > density] = 0.0
    return out


def serial_engine(limit=None, **kwargs):
    """One lane: every product goes through an In-Place task and the
    tracker log is a function of the grids."""
    engine = LocalEngine(threads=1, memory_limit_bytes=limit, **kwargs)
    engine.tracker = LoggingTracker(limit)
    return engine


def count_accumulates(monkeypatch):
    calls = []
    accumulate = ops.accumulate
    monkeypatch.setattr(
        ops, "accumulate", lambda target, addition: calls.append(1) or accumulate(target, addition)
    )
    return calls


class TestFirstProductIsTheResult:
    @pytest.mark.parametrize("inner_blocks", [1, 2, 5])
    def test_k_pairs_fold_k_minus_one_times(self, monkeypatch, rng, inner_blocks):
        ga = split(rng.random((8, 4 * inner_blocks)), 4)
        gb = split(rng.random((4 * inner_blocks, 12)), 4)
        calls = count_accumulates(monkeypatch)
        result = serial_engine().matmul_grids(ga, gb)
        assert len(result) == 2 * 3
        assert len(calls) == len(result) * (inner_blocks - 1)

    @pytest.mark.parametrize("shape,storage,density", [
        *(pytest.param((11, inner, 7), storage, 0.6, id=f"{inner}-storage{index}")
          for inner in (5, 15)
          for index, storage in enumerate([("dense", "dense"), ("sparse", "dense"),
                                           ("dense", "sparse"), ("sparse", "sparse")])),
        # A regular all-dense grid of small blocks: the default engine books
        # it through the same In-Place tasks as any other grid.
        pytest.param((20, 15, 20), ("dense", "dense"), 1.0, id="regular-dense-grid"),
    ])
    def test_bytes_and_books_equal_zeros_plus_fold(self, rng, shape, storage, density):
        m, inner, n = shape
        with np.errstate(all="ignore"):
            ga = split(special_matrix(rng, m, inner, density), 5, storage=storage[0])
            gb = split(special_matrix(rng, inner, n, density), 5, storage=storage[1])
            engine = serial_engine()
            result = engine.matmul_grids(ga, gb)
            reference = LoggingTracker()
            tasks = inplace_matmul_tasks(ga, gb)
            expected = {task.result_key: zeros_plus_fold(reference, task) for task in tasks}
        assert result.keys() == expected.keys()
        for key, block in expected.items():
            assert result[key].data.tobytes() == block.data.tobytes()
        assert engine.tracker.log == reference.log
        assert engine.tracker.peak_bytes == reference.peak_bytes

    def test_the_memory_limit_raises_at_the_same_call(self, rng):
        ga, gb = split(rng.random((10, 10)), 5), split(rng.random((10, 10)), 5)
        tasks = inplace_matmul_tasks(ga, gb)
        block_bytes = tasks[0].pairs[0][0].model_nbytes
        # Room for the result block but not its transient, then not even that.
        for limit in (block_bytes, block_bytes - 1):
            engine = serial_engine(limit)
            with pytest.raises(MemoryLimitExceeded):
                engine.matmul_grids(ga, gb)
            reference = LoggingTracker(limit)
            with pytest.raises(MemoryLimitExceeded):
                zeros_plus_fold(reference, tasks[0])
            assert engine.tracker.log == reference.log

    def test_the_result_is_the_tasks_own_array(self, rng):
        """Later folds mutate the adopted product, so it may alias neither
        operand -- not even for a 1x1 or an identity-like product."""
        eye = np.eye(4)
        for a, b in [(eye, rng.random((4, 4))), (rng.random((4, 4)), eye),
                     (np.ones((1, 1)), np.ones((1, 1)))]:
            for storage in ("dense", "sparse"):
                ga, gb = split(a, 4, storage=storage), split(b, 4)
                (block,) = serial_engine().matmul_grids(ga, gb).values()
                for operand in (*ga.values(), *gb.values()):
                    arrays = [operand.values] if operand.is_sparse else [operand.data]
                    assert not any(np.shares_memory(block.data, array) for array in arrays)
                before = [g[0, 0].to_numpy() for g in (ga, gb)]
                ops.accumulate(block, DenseBlock(np.ones(block.shape)))
                assert all(np.array_equal(g[0, 0].to_numpy(), was) for g, was in zip((ga, gb), before))


class TestAProductHoldsNoNegativeZero:
    """The premise of adopting the first product: ``0.0 + p`` is ``p`` to
    the bit only if ``p`` holds no ``-0.0``.  A product path that fails
    this must keep its fold."""

    @staticmethod
    def assert_no_negative_zero(data):
        assert not np.signbit(data[data == 0]).any()

    @pytest.mark.parametrize("shape", [(6, 5, 7), (1, 9, 9), (9, 9, 1), (1, 1, 1), (1, 6, 1),
                                       (5, 1, 5), (4, 0, 3), (40, 33, 36)])
    @pytest.mark.parametrize("a_sparse,b_sparse", [(False, False), (True, False),
                                                   (False, True), (True, True)])
    def test_every_block_product(self, rng, shape, a_sparse, b_sparse):
        m, k, n = shape
        a, b = special_matrix(rng, m, k, 0.7), special_matrix(rng, k, n, 0.7)
        blocks = [CSCBlock.from_dense(x) if sparse else DenseBlock(x)
                  for x, sparse in ((a, a_sparse), (b, b_sparse))]
        with np.errstate(all="ignore"):
            self.assert_no_negative_zero(ops.matmul(*blocks).data)

    def test_symmetric_and_strided_dense_products(self, rng):
        """``A @ A.T`` goes to syrk, a strided operand to numpy's own loop
        or a copy, a vector to gemv; none starts from anything but +0.0."""
        a = DenseBlock(special_matrix(rng, 12, 9))
        wide = special_matrix(rng, 24, 27)
        strided = DenseBlock(np.zeros((12, 9)))
        strided.data = wide[::2, ::3]
        with np.errstate(all="ignore"):
            for left, right in [(a, a.transpose()), (strided, a.transpose()),
                                (a.transpose(), strided), (strided, DenseBlock(wide[:9, :1]))]:
                self.assert_no_negative_zero(ops.matmul(left, right).data)
