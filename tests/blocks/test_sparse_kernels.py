"""The CSC kernels against sequential references kept here, bit for bit.

``repro.blocks`` promises that every CSC operation does O(nnz) numpy work,
sorts only what is unsorted, and sums a sparse product's contributions to
an output cell *in the sparse operand's storage order* -- so its results
are a function of the operands, not of how the work is cut into numpy
calls.  The references below are the slow, obvious loops; the library must
equal them exactly (``-0.0`` and the position of every NaN included).
"""

import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.blocks import ops, sparse, split
from repro.blocks.conversion import DEFAULT_SPARSE_THRESHOLD
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock
from repro.datasets import graph_like, row_normalize
from repro.localexec.engine import LocalEngine
from repro.programs import build_pagerank_program
from repro.programs.registry import WorkloadParams, build_workload

#: Mostly zeros (blocks stay sparse, rows and columns come out empty), the
#: special values, and magnitudes whose sums round differently in every order.
entries = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 1e300, 1e-300, 1.0, -1.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal byte for byte, NaNs matching by position (payloads are the
    FPU's business)."""
    if actual.shape != expected.shape or actual.dtype != expected.dtype:
        return False
    nans = np.isnan(expected)
    if not np.array_equal(np.isnan(actual), nans):
        return False
    return np.where(nans, 0.0, actual).tobytes() == np.where(nans, 0.0, expected).tobytes()


def assert_same_block(actual, expected) -> None:
    """Same class, same arrays, same dtypes."""
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape
    if isinstance(expected, DenseBlock):
        assert same_bits(actual.data, expected.data)
        return
    assert same_bits(actual.values, expected.values)
    for name in ("row_idx", "colptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def stored_entries(array: np.ndarray):
    """``(row, col, value)`` of the non-zeros in CSC storage order."""
    rows, cols = array.shape
    for c in range(cols):
        for r in range(rows):
            if array[r, c] != 0:
                yield r, c, float(array[r, c])


def reference_csc(array: np.ndarray) -> CSCBlock:
    """The canonical CSC form of a dense array, entry by entry."""
    triples = list(stored_entries(array))
    counts = [0] * array.shape[1]
    for __, c, __ in triples:
        counts[c] += 1
    return CSCBlock(
        array.shape,
        np.array([v for __, __, v in triples], dtype=np.float64),
        np.array([r for r, __, __ in triples], dtype=np.int32),
        np.concatenate(([0], np.cumsum(counts))).astype(np.int32),
    )


def sequential_scatter(triples, dense: np.ndarray, sparse_on_left: bool, shape) -> np.ndarray:
    """The contract of a product with a sparse operand: every stored entry
    ``(row, col, value)``, in the order given, scatters its contribution
    onto the output, one scalar add at a time starting from ``0.0``."""
    m, n = shape
    out = [[0.0] * n for __ in range(m)]
    with np.errstate(all="ignore"):
        for r, c, v in triples:
            if sparse_on_left:
                for j in range(n):
                    out[r][j] = out[r][j] + v * float(dense[c, j])
            else:
                for i in range(m):
                    out[i][c] = out[i][c] + v * float(dense[i, r])
    return np.array(out, dtype=np.float64).reshape(m, n)


def reference_matmul(a: np.ndarray, b: np.ndarray, a_sparse: bool, b_sparse: bool) -> np.ndarray:
    """``a @ b`` the way the block kernels define it: a dense x dense
    product is numpy's; with a sparse operand, its stored entries scatter in
    storage order (sparse x sparse densifies the right operand)."""
    if not a_sparse and not b_sparse:
        return a @ b
    shape = a.shape[0], b.shape[1]
    if a_sparse:
        return sequential_scatter(stored_entries(a), b, True, shape)
    return sequential_scatter(stored_entries(b), a, False, shape)


def reference_from_coo(rows, cols, values, shape) -> CSCBlock:
    """Coalesce duplicates in input order starting from 0.0, drop what sums
    to zero, sort column-major."""
    sums: dict[tuple[int, int], float] = {}
    with np.errstate(all="ignore"):
        for r, c, v in zip(rows, cols, values):
            sums[(int(c), int(r))] = sums.get((int(c), int(r)), 0.0) + float(v)
    dense = np.zeros(shape, dtype=np.float64)
    for (c, r), v in sums.items():
        dense[r, c] = v
    return reference_csc(dense)


def reference_split(array, block_size, storage, sparse_threshold):
    grid = {}
    rows, cols = array.shape
    for bi, r0 in enumerate(range(0, rows, block_size)):
        for bj, c0 in enumerate(range(0, cols, block_size)):
            piece = np.array(array[r0 : r0 + block_size, c0 : c0 + block_size], dtype=np.float64)
            density = sum(1 for __ in stored_entries(piece)) / piece.size
            sparse = storage == "sparse" or (storage == "auto" and density < sparse_threshold)
            grid[(bi, bj)] = reference_csc(piece) if sparse else DenseBlock(piece)
    return grid


# ---------------------------------------------------------------------------
# (i) products
# ---------------------------------------------------------------------------


def operand(array: np.ndarray, sparse: bool):
    return CSCBlock.from_dense(array) if sparse else DenseBlock(array)


@st.composite
def product_operands(draw):
    m, k, n = (draw(st.integers(1, 7)) for __ in range(3))
    a = draw(arrays(np.float64, (m, k), elements=entries))
    b = draw(arrays(np.float64, (k, n), elements=entries))
    return a, b


#: The two cuts of the one scatter contract (docs/kernels.md) and the rule's
#: constants that send every product with a sparse operand through each.
KERNELS = {
    "rounds": {"_ROUND_COST": 0, "_TRANSPOSE_COST": 0, "_ROUNDS_MIN_LINES": 0},
    "bincount": {"_ROUNDS_MIN_LINES": 1 << 62},
}


@contextlib.contextmanager
def forced_kernel(name):
    """Patch the rule's module constants, as the batching tests patch
    ``_SCATTER_BATCH``; yields the per-kernel call counts of the block."""
    patched = {**KERNELS[name], "_rounds_product": None, "_scatter_product": None}
    saved = {attribute: getattr(ops, attribute) for attribute in patched}
    calls = {"rounds": 0, "bincount": 0}

    def counted(kernel, function):
        def run(*args):
            calls[kernel] += 1
            return function(*args)

        return run

    patched["_rounds_product"] = counted("rounds", saved["_rounds_product"])
    patched["_scatter_product"] = counted("bincount", saved["_scatter_product"])
    try:
        for attribute, value in patched.items():
            setattr(ops, attribute, value)
        yield calls
    finally:
        for attribute, value in saved.items():
            setattr(ops, attribute, value)


def matmul_through(kernel, a, b):
    """``ops.matmul`` with the rule pinned to one kernel (checked)."""
    with forced_kernel(kernel) as calls, np.errstate(all="ignore"):
        product = ops.matmul(a, b)
    other = "bincount" if kernel == "rounds" else "rounds"
    assert calls == {kernel: int(a.is_sparse or b.is_sparse), other: 0}
    return product


@given(product_operands(), st.booleans(), st.booleans())
def test_matmul_equals_the_sequential_scatter(operands, a_sparse, b_sparse):
    a, b = operands
    with np.errstate(all="ignore"):
        product = ops.matmul(operand(a, a_sparse), operand(b, b_sparse))
        expected = reference_matmul(a, b, a_sparse, b_sparse)
    assert isinstance(product, DenseBlock)
    assert product.data.flags.c_contiguous
    assert same_bits(product.data, expected)


@given(product_operands(), st.booleans(), st.booleans())
def test_both_kernels_equal_the_sequential_scatter(operands, a_sparse, b_sparse):
    """Whatever the rule would pick for these operands, either cut gives
    the reference's bits: ``-0.0`` and every NaN position included."""
    a, b = operands
    with np.errstate(all="ignore"):
        expected = reference_matmul(a, b, a_sparse, b_sparse)
    for kernel in KERNELS:
        product = matmul_through(kernel, operand(a, a_sparse), operand(b, b_sparse))
        assert product.data.flags.c_contiguous
        assert same_bits(product.data, expected), kernel


@given(product_operands(), st.booleans(), st.sampled_from([1, 5, 17]))
def test_matmul_bits_do_not_depend_on_the_batching(operands, a_sparse, batch):
    """One weight per ``bincount`` call or per pass of a round, a few, or
    all at once: the cut follows ``(nnz, lines)`` of the operands and must
    not show."""
    a, b = operands
    blocks = operand(a, a_sparse), operand(b, not a_sparse)
    for kernel in KERNELS:
        whole = matmul_through(kernel, *blocks)
        original = ops._SCATTER_BATCH
        ops._SCATTER_BATCH = batch
        try:
            cut = matmul_through(kernel, *blocks)
        finally:
            ops._SCATTER_BATCH = original
        assert same_bits(cut.data, whole.data), kernel


@pytest.mark.parametrize("shape", [(1, 9, 9), (9, 9, 1), (1, 1, 1), (5, 1, 5), (6, 4, 3)])
@pytest.mark.parametrize("a_sparse,b_sparse", [(True, False), (False, True), (True, True)])
def test_vector_shapes_and_empty_operands(shape, a_sparse, b_sparse, rng):
    m, k, n = shape
    a = rng.standard_normal((m, k)) * (rng.random((m, k)) < 0.5)
    b = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.5)
    for left, right in ((a, b), (np.zeros_like(a), b), (a, np.zeros_like(b))):
        blocks = operand(left, a_sparse), operand(right, b_sparse)
        expected = reference_matmul(left, right, a_sparse, b_sparse)
        assert same_bits(ops.matmul(*blocks).data, expected)
        for kernel in KERNELS:
            assert same_bits(matmul_through(kernel, *blocks).data, expected), kernel


def reference_stored_scatter(block: CSCBlock, dense: np.ndarray, block_on_left: bool) -> np.ndarray:
    """The contract on a block's stored arrays as they are, canonical or not."""
    shape = (block.shape[0], dense.shape[1]) if block_on_left else (dense.shape[0], block.shape[1])
    triples = zip(block.row_idx.tolist(), block.column_indices().tolist(), block.values.tolist())
    return sequential_scatter(triples, dense, block_on_left, shape)


def assert_both_kernels_equal_the_stored_scatter(block: CSCBlock, rng, lines: int = 5) -> None:
    right = rng.standard_normal((block.shape[1], lines))
    left = rng.standard_normal((lines, block.shape[0]))
    right[0, 0] = left[0, 0] = 0.0  # v * 0 with v < 0: a -0.0 a store would keep
    for kernel in KERNELS:
        product = matmul_through(kernel, block, DenseBlock(right))
        assert same_bits(product.data, reference_stored_scatter(block, right, True)), kernel
        product = matmul_through(kernel, DenseBlock(left), block)
        assert same_bits(product.data, reference_stored_scatter(block, left, False)), kernel


def test_one_deep_row_and_one_deep_column(rng):
    """As many rounds as the deepest line has entries, most of them of one
    entry: a power-law block is still the same sum."""
    array = rng.standard_normal((9, 11)) * (rng.random((9, 11)) < 0.15)
    array[4, :] = -rng.random(11) - 0.5
    array[:, 7] = rng.standard_normal(9)
    block = CSCBlock.from_dense(array)
    assert block.line_depth(0) == 11 and block.line_depth(1) == 9
    assert len(block.rank_rounds(0).bounds) == 12 and len(block.rank_rounds(1).bounds) == 10
    assert_both_kernels_equal_the_stored_scatter(block, rng)


def test_empty_rows_and_empty_columns(rng):
    array = rng.standard_normal((8, 7)) * (rng.random((8, 7)) < 0.4)
    array[[0, 3, 7], :] = 0.0
    array[:, [0, 2, 6]] = 0.0
    assert_both_kernels_equal_the_stored_scatter(CSCBlock.from_dense(array), rng)
    empty = CSCBlock.empty(4, 3)
    assert empty.line_depth(0) == empty.line_depth(1) == 0
    assert empty.rank_rounds(0).bounds == empty.rank_rounds(1).bounds == (0,)
    assert_both_kernels_equal_the_stored_scatter(empty, rng)


def test_raw_constructor_duplicates_are_carried_over_not_coalesced(rng):
    """Trap (3) of docs/kernels.md: coordinates repeated or out of order
    inside a column rank by storage position, so a round still holds every
    output slice at most once and the sum keeps storage order."""
    block = CSCBlock(
        (4, 3),
        np.array([1e16, 1.0, -1e16, 1.0, -2.0, 3.0, 0.5, -0.0, 7.0]),
        np.array([2, 2, 2, 2, 0, 3, 1, 3, 3], dtype=np.int32),  # (2, 0) four times, rows unsorted
        np.array([0, 4, 7, 9], dtype=np.int32),
    )
    assert block.line_depth(0) == 4 and block.line_depth(1) == 4
    for axis in (0, 1):
        rounds = block.rank_rounds(axis)
        for start, stop in zip(rounds.bounds, rounds.bounds[1:]):
            assert len(set(rounds.scatter[start:stop].tolist())) == stop - start
    assert_both_kernels_equal_the_stored_scatter(block, rng)


def test_the_schedule_is_read_only_and_storage_ordered_inside_a_rank(rng):
    block = CSCBlock.from_dense(rng.random((12, 9)) * (rng.random((12, 9)) < 0.4))
    for axis, keys in ((0, block.row_idx), (1, block.column_indices())):
        rounds = block.rank_rounds(axis)
        assert sorted(rounds.order.tolist()) == list(range(block.nnz))
        assert np.array_equal(rounds.scatter, keys[rounds.order])
        for array in (rounds.order, rounds.gather, rounds.scatter):
            assert array.dtype == np.intp and not array.flags.writeable
        for start, stop in zip(rounds.bounds, rounds.bounds[1:]):
            assert np.all(np.diff(rounds.order[start:stop]) > 0)


def test_copies_share_one_schedule(monkeypatch, rng):
    """Whichever block of a pattern asks first, the schedule is built once:
    GNMF's constant ``V`` and everything derived from it by ``with_values``
    read the same one; none of it is on the memory books."""
    builds = []
    build = sparse._build_rank_rounds
    monkeypatch.setattr(
        sparse, "_build_rank_rounds", lambda *args: builds.append(1) or build(*args)
    )
    block = CSCBlock.from_dense(rng.random((12, 9)) * (rng.random((12, 9)) < 0.4))
    books = block.model_nbytes, block.actual_nbytes
    clone = block.copy()
    scaled = ops.scalar_op("multiply", clone, 2.0)
    assert scaled.rank_rounds(0) is block.rank_rounds(0) is clone.rank_rounds(0)
    assert block.rank_rounds(1) is scaled.with_values(block.values).rank_rounds(1)
    assert len(builds) == 2
    assert (block.model_nbytes, block.actual_nbytes) == books
    assert block.transpose().rank_rounds(0) is not block.rank_rounds(1)  # another pattern


def test_racing_threads_build_the_same_schedule(rng):
    """No lock guards the kept schedule: racers may each build it, and must
    then all hold equal ones and compute the reference's product."""
    threads, patterns = 6, 8
    arrays = [rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.3) for __ in range(patterns)]
    dense = DenseBlock(rng.standard_normal((20, 4)))
    blocks = [CSCBlock.from_dense(array) for array in arrays]
    expected = [reference_stored_scatter(block, dense.data, True) for block in blocks]
    barrier = threading.Barrier(threads)
    results = [[None] * patterns for __ in range(threads)]

    def race(slot):
        barrier.wait(timeout=30)
        for index, block in enumerate(blocks):
            rounds = block.rank_rounds(0)
            product = ops._rounds_product(dense.data, 0, rounds, block.values, block.shape[0])
            results[slot][index] = (rounds, product)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=race, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for index, block in enumerate(blocks):
        kept = block.rank_rounds(0)
        for slot in range(threads):
            rounds, product = results[slot][index]
            assert rounds.bounds == kept.bounds
            assert all(np.array_equal(a, b) for a, b in zip(rounds[:3], kept[:3]))
            assert same_bits(product, expected[index])


def test_batching_follows_the_operands(monkeypatch, rng):
    """Counts, not clocks (docs/kernels.md), and the *product's* calls only:
    which cut runs, and how many ``bincount`` calls it makes, is a property
    of ``(nnz, lines, deepest row or column)`` of the operands.  The four
    documented shapes fall where the table says."""
    calls = {"bincount": 0, "rounds": 0, "passes": 0}
    bincount, rounds_product = np.bincount, ops._rounds_product

    def counted_bincount(*args, **kwargs):
        calls["bincount"] += "weights" in kwargs  # the scatter's, not an index count
        return bincount(*args, **kwargs)

    def counted_rounds(dense, axis, rounds, values, width):
        calls["rounds"] += 1
        calls["passes"] += len(rounds.bounds) - 1
        return rounds_product(dense, axis, rounds, values, width)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    monkeypatch.setattr(ops, "_rounds_product", counted_rounds)

    def cut(a, b):
        calls.update(bincount=0, rounds=0, passes=0)
        ops.matmul(a, b)
        return calls["bincount"], calls["rounds"], calls["passes"]

    # Hyper-sparse x wide: one bincount call whatever the width.
    wide = DenseBlock(rng.random((64, 64)))
    hyper = np.zeros((64, 64))
    hyper[[3, 17, 40, 63], [5, 5, 60, 0]] = 1.5
    assert cut(CSCBlock.from_dense(hyper), wide) == (1, 0, 0)
    assert cut(wide, CSCBlock.from_dense(hyper)) == (1, 0, 0)
    # Deep everywhere (28 of 64 per line): bincount, a few lines per call.
    large = rng.random((64, 64)) * (rng.random((64, 64)) < 0.29)
    lines_per_call = max(1, ops._SCATTER_BATCH // np.count_nonzero(large))
    assert cut(CSCBlock.from_dense(large), wide)[:2] == (-(-64 // lines_per_call), 0)
    assert -(-64 // lines_per_call) > 1
    # Mat-vecs (PageRank's rank @ link, LR's V @ w): one call, and the
    # pattern is never asked how deep it is.
    link = CSCBlock.from_dense(large)
    assert cut(DenseBlock(rng.random((1, 64))), link) == (1, 0, 0)
    assert cut(link, DenseBlock(rng.random((64, 1)))) == (1, 0, 0)
    assert link._pattern_facts == {}
    # gnmf_kernels: a 586 x 355 block of V (nnz ~2 500) against 64 factors.
    v_block = CSCBlock.random(586, 355, 2500 / (586 * 355), rng)
    factors = DenseBlock(rng.random((355, 64))), DenseBlock(rng.random((64, 586)))
    assert cut(v_block, factors[0]) == (0, 1, v_block.line_depth(0))
    assert cut(factors[1], v_block) == (0, 1, v_block.line_depth(1))
    # A power-law block: the same V with one full row is 355 rounds deep on
    # the row side and goes back to bincount; its columns are hardly deeper.
    rows, cols, values = v_block.to_coo()
    keep = rows != 0
    hub = CSCBlock.from_coo(
        np.concatenate([rows[keep], np.zeros(355, dtype=np.int64)]),
        np.concatenate([cols[keep], np.arange(355)]),
        np.concatenate([values[keep], np.ones(355)]),
        (586, 355),
    )
    assert hub.line_depth(0) == 355
    assert cut(hub, factors[0])[1:] == (0, 0) and calls["bincount"] > 1
    assert cut(factors[1], hub) == (0, 1, hub.line_depth(1))


# ---------------------------------------------------------------------------
# (ii) block cutting
# ---------------------------------------------------------------------------


def _layouts(array: np.ndarray):
    """The same logical matrix in C order, Fortran order, as a transposed
    view and as a strided view of a larger buffer."""
    buffer = np.zeros((array.shape[0] * 2, array.shape[1] * 3))
    buffer[::2, ::3] = array
    return {
        "C": np.ascontiguousarray(array),
        "F": np.asfortranarray(array),
        "transposed": np.ascontiguousarray(array.T).T,
        "strided": buffer[::2, ::3],
    }


@pytest.mark.parametrize("storage", ["auto", "dense", "sparse"])
@pytest.mark.parametrize("block_size", [4, 5, 16])
def test_split_equals_the_blockwise_reference(storage, block_size, rng):
    array = rng.standard_normal((13, 11))
    # Density per 4x4 block from 0 to 1, straddling the threshold; one block
    # sits exactly on it (density < threshold elects CSC, == does not).
    array *= rng.random(array.shape) < np.linspace(0.0, 1.0, 11)
    array[0:4, 0:4] = 0.0
    array[4:8, 4:8] = 0.0
    array[4:8, 4:8].flat[:4] = [1.0, -0.0, np.nan, -2.0]  # 3 stored of 16
    array[8, 9] = -0.0
    threshold = 3 / 16
    for name, view in _layouts(array).items():
        grid = split(view, block_size, storage=storage, sparse_threshold=threshold)
        expected = reference_split(array, block_size, storage, threshold)
        assert grid.keys() == expected.keys(), name
        for key in expected:
            assert_same_block(grid[key], expected[key])
    if storage == "auto" and block_size == 4:
        assert isinstance(grid[(0, 0)], CSCBlock) and grid[(0, 0)].nnz == 0
        assert isinstance(grid[(1, 1)], DenseBlock)  # density == threshold


@given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=entries),
       st.integers(1, 5))
def test_split_auto_equals_the_reference_on_any_array(array, block_size):
    grid = split(array, block_size)
    expected = reference_split(array, block_size, "auto", DEFAULT_SPARSE_THRESHOLD)
    for key in expected:
        assert_same_block(grid[key], expected[key])


def test_a_dense_array_is_cut_without_sorting_or_extracting(monkeypatch, rng):
    """Trap (b) of docs/kernels.md: the election reads the mask count; only
    a block that will be CSC pays for coordinates."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense block extracted coordinates or sorted")

    array = rng.random((40, 40)) + 0.5
    for name in ("nonzero", "flatnonzero", "argwhere", "argsort", "sort", "unique", "lexsort"):
        monkeypatch.setattr(np, name, forbidden)
    for name in ("from_dense", "_from_mask", "from_coo"):
        monkeypatch.setattr(CSCBlock, name, forbidden)
    grid = split(array, 16, storage="auto")
    assert all(isinstance(block, DenseBlock) for block in grid.values())


# ---------------------------------------------------------------------------
# (iii) from_coo
# ---------------------------------------------------------------------------

COO_CASES = {
    "canonical": ([0, 2, 1, 0, 3], [0, 0, 1, 3, 3], [1.0, 2.0, 3.0, 4.0, 5.0]),
    "unsorted": ([3, 0, 1, 2, 0], [3, 3, 1, 0, 0], [5.0, 4.0, 3.0, 2.0, 1.0]),
    "duplicated": ([1, 1, 0, 1, 3], [2, 2, 0, 2, 3], [0.1, 0.2, 1.0, 0.3, 7.0]),
    "cancelling": ([1, 1, 2], [2, 2, 0], [1.5, -1.5, 2.0]),
    "explicit-zero": ([0, 1, 2], [0, 1, 2], [1.0, 0.0, 3.0]),
    "explicit-zero-unsorted": ([2, 1, 0], [2, 1, 0], [3.0, 0.0, 1.0]),
    "negative-zero": ([0, 1, 2], [0, 1, 2], [1.0, -0.0, 3.0]),
    "nan": ([0, 1, 2], [0, 1, 2], [np.nan, 2.0, np.nan]),
    "nan-duplicated": ([1, 1, 2], [1, 1, 2], [np.nan, 2.0, -0.0]),
    "single": ([2], [1], [4.0]),
    "empty": ([], [], []),
}


@pytest.mark.parametrize("case", sorted(COO_CASES))
def test_from_coo_fast_paths_equal_the_slow_path(case):
    rows, cols, values = COO_CASES[case]
    block = CSCBlock.from_coo(np.array(rows, int), np.array(cols, int), np.array(values, float), (4, 4))
    assert_same_block(block, reference_from_coo(rows, cols, values, (4, 4)))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), entries), max_size=30))
def test_from_coo_equals_the_reference_on_any_triples(triples):
    rows = np.array([t[0] for t in triples], dtype=np.int64)
    cols = np.array([t[1] for t in triples], dtype=np.int64)
    values = np.array([t[2] for t in triples], dtype=np.float64)
    with np.errstate(all="ignore"):
        block = CSCBlock.from_coo(rows, cols, values, (5, 4))
        expected = reference_from_coo(rows, cols, values, (5, 4))
    assert_same_block(block, expected)


def test_canonical_triples_are_not_sorted_again(monkeypatch, rng):
    block = CSCBlock.from_dense(rng.random((12, 9)) * (rng.random((12, 9)) < 0.3))
    rows, cols, values = block.to_coo()

    def forbidden(*args, **kwargs):
        raise AssertionError("canonical input was sorted or coalesced")

    for name in ("argsort", "sort", "unique", "lexsort"):
        monkeypatch.setattr(np, name, forbidden)
    assert CSCBlock.from_coo(rows, cols, values, block.shape) == block
    # Pattern-preserving kernels are the callers this is for.
    dense = DenseBlock(rng.random((12, 9)) + 1.0)
    assert ops.cellwise("multiply", block, dense).nnz == block.nnz
    assert ops.cellwise("divide", block, dense).nnz == block.nnz


def test_from_coo_never_aliases_its_input():
    values = np.array([1.0, 2.0])
    block = CSCBlock.from_coo(np.array([0, 1]), np.array([0, 1]), values, (2, 2))
    block.values[0] = 9.0
    assert values[0] == 1.0


@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=entries))
def test_transpose_equals_the_reference(array):
    assert_same_block(CSCBlock.from_dense(array).transpose(), reference_csc(array.T))


def test_transpose_still_drops_zeros_written_into_values():
    block = CSCBlock.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
    block.values[1] = 0.0
    assert_same_block(block.transpose(), reference_csc(np.array([[1.0, 0.0], [0.0, 3.0]])))


# ---------------------------------------------------------------------------
# (iv) counts, not clocks
# ---------------------------------------------------------------------------


def test_pagerank_products_never_rebuild_a_block(monkeypatch):
    """The constant ``link`` blocks are compressed once at load; no
    iteration transposes or re-canonicalises them (9 of each per iteration
    when dense x CSC went through two transposes).  Its products are
    mat-vecs, so no block is asked for its depth or a round schedule."""
    link = row_normalize(graph_like("soc-pokec", scale=1e-3, seed=4))
    program = build_pagerank_program(link.shape[0], 0.01, iterations=3)
    calls = {"transpose": 0, "from_coo": 0, "sparse products": 0, "pattern facts": 0}
    transpose, from_coo, matmul = CSCBlock.transpose, CSCBlock.from_coo.__func__, ops.matmul

    def forbidden_fact(self, axis):
        calls["pattern facts"] += 1
        raise AssertionError("a mat-vec looked at the pattern's depth or rounds")

    def counted_transpose(self):
        calls["transpose"] += 1
        return transpose(self)

    def counted_from_coo(cls, *args):
        calls["from_coo"] += 1
        return from_coo(cls, *args)

    def counted_matmul(a, b):
        calls["sparse products"] += isinstance(a, CSCBlock) or isinstance(b, CSCBlock)
        return matmul(a, b)

    monkeypatch.setattr(CSCBlock, "transpose", counted_transpose)
    monkeypatch.setattr(CSCBlock, "from_coo", classmethod(counted_from_coo))
    monkeypatch.setattr(ops, "matmul", counted_matmul)
    monkeypatch.setattr(CSCBlock, "line_depth", forbidden_fact)
    monkeypatch.setattr(CSCBlock, "rank_rounds", forbidden_fact)
    session = DMacSession(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=600))
    result = session.run(program, {"link": link})
    assert calls["sparse products"] >= 3 * 9  # a 3x3 grid of CSC link blocks
    assert calls["transpose"] == 0 and calls["from_coo"] == 0 and calls["pattern facts"] == 0
    oracle = run_local(program, {"link": link})
    for name, matrix in oracle.matrices.items():
        np.testing.assert_allclose(result.matrices[name], matrix, atol=1e-12)


def test_a_gnmf_job_schedules_v_once_and_folds_only_later_pairs(monkeypatch):
    """The count gate of docs/kernels.md on a ``gnmf_kernels`` job (the
    benchmark's parameters, 4 workers x 2 threads), counted from outside:
    ``V`` is 9603 x 355 cut at 586 -- 17 blocks, each with at most one
    schedule per orientation however many iterations multiply by it -- and
    an In-Place task calls ``ops.accumulate`` for its second pair onwards,
    the first product being the result block (3 iterations: 219 pairs in
    141 tasks, 78 folds; 258 in 180 while ``W H H^T`` ran as ``(W H) H^T``)."""
    counts = dict.fromkeys(("schedules", "tasks", "pairs", "folds"), 0)
    lock, in_task = threading.Lock(), threading.local()
    build, accumulate, run_task = (
        sparse._build_rank_rounds, ops.accumulate, LocalEngine._run_inplace_task
    )

    def count(name, by=1):
        with lock:
            counts[name] += by

    def counted_build(*args):
        count("schedules")
        return build(*args)

    def counted_accumulate(target, addition):
        count("folds", getattr(in_task, "active", False))
        return accumulate(target, addition)

    def counted_task(self, task):
        count("tasks")
        count("pairs", len(task.pairs))
        in_task.active = True
        try:
            return run_task(self, task)
        finally:
            in_task.active = False

    monkeypatch.setattr(sparse, "_build_rank_rounds", counted_build)
    monkeypatch.setattr(ops, "accumulate", counted_accumulate)
    monkeypatch.setattr(LocalEngine, "_run_inplace_task", counted_task)
    seen = {}
    for iterations in (3, 5):
        counts.update(dict.fromkeys(counts, 0))
        built = build_workload(
            "gnmf", WorkloadParams(seed=11, scale=2e-2, factors=64, iterations=iterations)
        )
        assert built.inputs["V"].shape == (9603, 355)
        with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=2), optimize=True) as session:
            session.run(built.program, built.inputs)
        assert counts["folds"] == counts["pairs"] - counts["tasks"]
        seen[iterations] = dict(counts)
    assert 0 < seen[3]["schedules"] == seen[5]["schedules"] <= 2 * 17
    assert (seen[3]["tasks"], seen[3]["pairs"], seen[3]["folds"]) == (141, 219, 78)
    assert seen[5]["tasks"] > seen[3]["tasks"]


# ---------------------------------------------------------------------------
# (v) shared, frozen index arrays
# ---------------------------------------------------------------------------


def test_index_arrays_are_read_only_and_values_are_not(rng):
    block = CSCBlock.from_dense(rng.random((6, 5)) * (rng.random((6, 5)) < 0.5))
    for array in (block.row_idx, block.colptr, block.column_indices()):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    block.values[0] = 7.0
    assert block.to_numpy()[block.row_idx[0], block.column_indices()[0]] == 7.0
    assert block.column_indices() is block.column_indices()
    assert np.array_equal(
        block.column_indices(), np.repeat(np.arange(5), np.diff(block.colptr))
    )


def test_a_block_owns_its_index_arrays():
    """The caller's arrays stay writable, and writing to them reaches
    neither the block nor the copies that share its pattern."""
    rows = np.array([0, 1], dtype=np.int32)
    colptr = np.array([0, 1, 2], dtype=np.int32)
    block = CSCBlock((2, 2), np.array([1.0, 2.0]), rows, colptr)
    clone = block.copy()
    rows[0] = 1
    colptr[1] = 2
    for owner in (block, clone):
        assert owner.row_idx.tolist() == [0, 1] and owner.colptr.tolist() == [0, 1, 2]
    assert clone.row_idx is block.row_idx and clone.colptr is block.colptr


def test_copies_share_the_pattern_not_the_values(rng):
    block = CSCBlock.from_dense(rng.random((6, 5)) * (rng.random((6, 5)) < 0.5))
    before = block.values.copy()
    for clone in (block.copy(), ops.scalar_op("multiply", block, 1.0), ops.unary_op("abs", block)):
        assert clone == block
        clone.values[:] = -1.0
        assert np.array_equal(block.values, before)
    rows, cols, values = block.to_coo()
    rows[:] = 0
    cols[:] = 0
    values[:] = 0.0
    assert np.array_equal(block.values, before)
