"""The CSC kernels against sequential references kept here, bit for bit.

``repro.blocks`` promises that every CSC operation does O(nnz) numpy work,
sorts only what is unsorted, and sums a sparse product's contributions to
an output cell *in the sparse operand's storage order* -- so its results
are a function of the operands, not of how the work is cut into numpy
calls.  The references below are the slow, obvious loops; the library must
equal them exactly (``-0.0`` and the position of every NaN included).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.blocks import ops, split
from repro.blocks.conversion import DEFAULT_SPARSE_THRESHOLD
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock
from repro.datasets import graph_like, row_normalize
from repro.programs import build_pagerank_program

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


def reference_matmul(a: np.ndarray, b: np.ndarray, a_sparse: bool, b_sparse: bool) -> np.ndarray:
    """``a @ b`` the way the block kernels define it: a dense x dense
    product is numpy's; with a sparse operand, every stored entry scatters
    its contribution onto the output in storage order, one scalar add at a
    time (sparse x sparse densifies the right operand)."""
    if not a_sparse and not b_sparse:
        return a @ b
    m, n = a.shape[0], b.shape[1]
    out = [[0.0] * n for __ in range(m)]
    with np.errstate(all="ignore"):
        if a_sparse:
            for r, c, v in stored_entries(a):
                for j in range(n):
                    out[r][j] = out[r][j] + v * float(b[c, j])
        else:
            for r, c, v in stored_entries(b):
                for i in range(m):
                    out[i][c] = out[i][c] + v * float(a[i, r])
    return np.array(out, dtype=np.float64).reshape(m, n)


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


@given(product_operands(), st.booleans(), st.booleans())
def test_matmul_equals_the_sequential_scatter(operands, a_sparse, b_sparse):
    a, b = operands
    with np.errstate(all="ignore"):
        product = ops.matmul(operand(a, a_sparse), operand(b, b_sparse))
        expected = reference_matmul(a, b, a_sparse, b_sparse)
    assert isinstance(product, DenseBlock)
    assert product.data.flags.c_contiguous
    assert same_bits(product.data, expected)


@given(product_operands(), st.booleans(), st.sampled_from([1, 5, 17]))
def test_matmul_bits_do_not_depend_on_the_batching(operands, a_sparse, batch):
    """One weight per ``bincount`` call, a few, or all at once: the cut
    follows ``(nnz, lines)`` of the operands and must not show."""
    a, b = operands
    blocks = operand(a, a_sparse), operand(b, not a_sparse)
    with np.errstate(all="ignore"):
        whole = ops.matmul(*blocks)
        original = ops._SCATTER_BATCH
        ops._SCATTER_BATCH = batch
        try:
            cut = ops.matmul(*blocks)
        finally:
            ops._SCATTER_BATCH = original
    assert same_bits(cut.data, whole.data)


@pytest.mark.parametrize("shape", [(1, 9, 9), (9, 9, 1), (1, 1, 1), (5, 1, 5), (6, 4, 3)])
@pytest.mark.parametrize("a_sparse,b_sparse", [(True, False), (False, True), (True, True)])
def test_vector_shapes_and_empty_operands(shape, a_sparse, b_sparse, rng):
    m, k, n = shape
    a = rng.standard_normal((m, k)) * (rng.random((m, k)) < 0.5)
    b = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.5)
    for left, right in ((a, b), (np.zeros_like(a), b), (a, np.zeros_like(b))):
        product = ops.matmul(operand(left, a_sparse), operand(right, b_sparse))
        assert same_bits(product.data, reference_matmul(left, right, a_sparse, b_sparse))


def test_batching_follows_the_operands(monkeypatch, rng):
    """Counts, not clocks (docs/kernels.md): a hyper-sparse operand against
    a wide dense one is a single ``bincount`` whatever the width; a large
    one goes a line of the dense operand at a time."""
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or bincount(*a, **kw))

    def bincounts(a, b):
        calls.clear()
        ops.matmul(a, b)
        return len(calls)

    wide = DenseBlock(rng.random((64, 64)))
    hyper = np.zeros((64, 64))
    hyper[[3, 17, 40, 63], [5, 5, 60, 0]] = 1.5
    assert bincounts(CSCBlock.from_dense(hyper), wide) == 1
    assert bincounts(wide, CSCBlock.from_dense(hyper)) == 1
    large = rng.random((64, 64)) * (rng.random((64, 64)) < 0.29)
    nnz = np.count_nonzero(large)
    lines_per_call = max(1, ops._SCATTER_BATCH // nnz)
    assert bincounts(CSCBlock.from_dense(large), wide) == -(-64 // lines_per_call) > 1
    vector = DenseBlock(rng.random((1, 64)))
    assert bincounts(vector, CSCBlock.from_dense(large)) == 1


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
    when dense x CSC went through two transposes)."""
    link = row_normalize(graph_like("soc-pokec", scale=1e-3, seed=4))
    program = build_pagerank_program(link.shape[0], 0.01, iterations=3)
    calls = {"transpose": 0, "from_coo": 0, "sparse products": 0}
    transpose, from_coo, matmul = CSCBlock.transpose, CSCBlock.from_coo.__func__, ops.matmul

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
    session = DMacSession(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=600))
    result = session.run(program, {"link": link})
    assert calls["sparse products"] >= 3 * 9  # a 3x3 grid of CSC link blocks
    assert calls["transpose"] == 0 and calls["from_coo"] == 0
    oracle = run_local(program, {"link": link})
    for name, matrix in oracle.matrices.items():
        np.testing.assert_allclose(result.matrices[name], matrix, atol=1e-12)


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
