"""The CSC kernels against sequential references kept here, bit for bit.

``repro.blocks`` promises that every CSC operation does O(nnz) numpy work,
sorts only what is unsorted, and sums a sparse product's contributions to
an output cell *in the sparse operand's storage order* -- so its results
are a function of the operands alone.  Every sparse product runs one
compiled kernel, scipy's ``_sparsetools`` loops loaded without the
``scipy`` package.  The references below are the slow, obvious loops; the
library must equal them exactly (``-0.0`` and the position of every NaN
included).
"""

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.blocks import ops, split
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


def matmul_compiled(a, b):
    """``ops.matmul``, checked to run the one compiled kernel exactly once
    when an operand is sparse (and never for dense x dense)."""
    calls = []
    kernel = ops._sparse_product

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    ops._sparse_product = counted
    try:
        with np.errstate(all="ignore"):
            product = ops.matmul(a, b)
    finally:
        ops._sparse_product = kernel
    assert len(calls) == int(a.is_sparse or b.is_sparse)
    return product


@given(product_operands(), st.booleans(), st.booleans())
def test_matmul_equals_the_sequential_scatter(operands, a_sparse, b_sparse):
    a, b = operands
    product = matmul_compiled(operand(a, a_sparse), operand(b, b_sparse))
    with np.errstate(all="ignore"):
        expected = reference_matmul(a, b, a_sparse, b_sparse)
    assert isinstance(product, DenseBlock)
    assert product.data.flags.c_contiguous
    assert same_bits(product.data, expected)


def matmul_on_loop(loop, a, b, a_sparse, b_sparse):
    """``a @ b`` through ``ops.matmul`` with every line of the dense operand
    run by one of the compiled loops (checked): ``"matvec"`` multiplies one
    line at a time, ``"matvecs"`` all of them at once with a zero line
    padded on, so there are always two or more."""
    if not (a_sparse or b_sparse):
        return matmul_compiled(operand(a, False), operand(b, False)).data
    calls = []
    load = ops._sparsetools

    def counted(name):
        def call(*args):
            calls.append(name)
            return getattr(load(), name)(*args)

        return call

    names = ("csc_matvec", "csr_matvec", "csc_matvecs", "csr_matvecs")
    loops = SimpleNamespace(**{name: counted(name) for name in names})
    ops._sparsetools = lambda: loops
    try:
        with np.errstate(all="ignore"):
            if loop == "matvec" and a_sparse:
                left = operand(a, True)
                lines = [ops.matmul(left, operand(b[:, [j]], b_sparse)) for j in range(b.shape[1])]
                product = np.hstack([line.data for line in lines])
            elif loop == "matvec":
                right = operand(b, True)
                lines = [ops.matmul(DenseBlock(a[[i], :]), right) for i in range(a.shape[0])]
                product = np.vstack([line.data for line in lines])
            elif a_sparse:
                padded = np.hstack([b, np.zeros((b.shape[0], 1))])
                product = ops.matmul(operand(a, True), operand(padded, b_sparse)).data[:, :-1]
            else:
                padded = np.vstack([a, np.zeros((1, a.shape[1]))])
                product = ops.matmul(operand(padded, False), operand(b, True)).data[:-1, :]
    finally:
        ops._sparsetools = load
    count = (b.shape[1] if a_sparse else a.shape[0]) if loop == "matvec" else 1
    assert len(calls) == count and all(name.endswith(f"_{loop}") for name in calls), calls
    return product


@given(product_operands(), st.booleans(), st.booleans())
def test_both_kernels_equal_the_sequential_scatter(operands, a_sparse, b_sparse):
    """The single-line loop and the multi-line loop each give the
    reference's bits, ``-0.0`` and every NaN position included: the one
    matmul may pick either by the operands' shapes."""
    a, b = operands
    with np.errstate(all="ignore"):
        expected = reference_matmul(a, b, a_sparse, b_sparse)
    for loop in ("matvec", "matvecs"):
        product = matmul_on_loop(loop, a, b, a_sparse, b_sparse)
        assert same_bits(product, expected), loop


@pytest.mark.parametrize("shape", [(1, 9, 9), (9, 9, 1), (1, 1, 1), (5, 1, 5), (6, 4, 3)])
@pytest.mark.parametrize("a_sparse,b_sparse", [(True, False), (False, True), (True, True)])
def test_vector_shapes_and_empty_operands(shape, a_sparse, b_sparse, rng):
    m, k, n = shape
    a = rng.standard_normal((m, k)) * (rng.random((m, k)) < 0.5)
    b = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.5)
    for left, right in ((a, b), (np.zeros_like(a), b), (a, np.zeros_like(b))):
        blocks = operand(left, a_sparse), operand(right, b_sparse)
        expected = reference_matmul(left, right, a_sparse, b_sparse)
        assert same_bits(matmul_compiled(*blocks).data, expected)


def reference_stored_scatter(block: CSCBlock, dense: np.ndarray, block_on_left: bool) -> np.ndarray:
    """The contract on a block's stored arrays as they are, canonical or not."""
    shape = (block.shape[0], dense.shape[1]) if block_on_left else (dense.shape[0], block.shape[1])
    triples = zip(block.row_idx.tolist(), block.column_indices().tolist(), block.values.tolist())
    return sequential_scatter(triples, dense, block_on_left, shape)


def assert_the_kernel_equals_the_stored_scatter(block: CSCBlock, rng, lines: int = 5) -> None:
    right = rng.standard_normal((block.shape[1], lines))
    left = rng.standard_normal((lines, block.shape[0]))
    right[0, 0] = left[0, 0] = 0.0  # v * 0 with v < 0: a -0.0 a store would keep
    product = matmul_compiled(block, DenseBlock(right))
    assert same_bits(product.data, reference_stored_scatter(block, right, True))
    product = matmul_compiled(DenseBlock(left), block)
    assert same_bits(product.data, reference_stored_scatter(block, left, False))


def test_one_deep_row_and_one_deep_column(rng):
    """One full row and one full column among short ones: a power-law
    block is still the same sum."""
    array = rng.standard_normal((9, 11)) * (rng.random((9, 11)) < 0.15)
    array[4, :] = -rng.random(11) - 0.5
    array[:, 7] = rng.standard_normal(9)
    assert_the_kernel_equals_the_stored_scatter(CSCBlock.from_dense(array), rng)


def test_empty_rows_and_empty_columns(rng):
    array = rng.standard_normal((8, 7)) * (rng.random((8, 7)) < 0.4)
    array[[0, 3, 7], :] = 0.0
    array[:, [0, 2, 6]] = 0.0
    assert_the_kernel_equals_the_stored_scatter(CSCBlock.from_dense(array), rng)
    assert_the_kernel_equals_the_stored_scatter(CSCBlock.empty(4, 3), rng)


def test_raw_constructor_duplicates_are_carried_over_not_coalesced(rng):
    """Trap (3) of docs/kernels.md: coordinates repeated or out of order
    inside a column are summed as stored, one at a time in storage order."""
    block = CSCBlock(
        (4, 3),
        np.array([1e16, 1.0, -1e16, 1.0, -2.0, 3.0, 0.5, -0.0, 7.0]),
        np.array([2, 2, 2, 2, 0, 3, 1, 3, 3], dtype=np.int32),  # (2, 0) four times, rows unsorted
        np.array([0, 4, 7, 9], dtype=np.int32),
    )
    assert_the_kernel_equals_the_stored_scatter(block, rng)


#: Run in a fresh interpreter: six threads race the process's *first*
#: sparse product -- the one that loads the compiled kernel -- half of them
#: through each side of it, as the lanes of a pool would.
FIRST_COMPILED_RACE = """
import sys, threading
import numpy as np
from repro.blocks import ops, sparse
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock

operands = np.load(sys.argv[1])
block = CSCBlock.from_dense(operands["sparse"])
left, right = DenseBlock(operands["left"]), DenseBlock(operands["right"])
assert not [name for name in sys.modules if name.startswith("scipy")]
loads, load = [], sparse._load_sparsetools

def counted_load():
    loads.append(threading.get_ident())
    return load()

sparse._load_sparsetools = counted_load
threads = 6
barrier = threading.Barrier(threads)
products = [None] * threads

def race(slot):
    barrier.wait(timeout=30)
    products[slot] = ops.matmul(block, right) if slot % 2 else ops.matmul(left, block)

sys.setswitchinterval(1e-6)
workers = [threading.Thread(target=race, args=(slot,)) for slot in range(threads)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join(timeout=60)
    assert not worker.is_alive()
assert len(loads) == 1, loads
assert sorted(name for name in sys.modules if name.startswith("scipy")) == [
    "scipy.sparse._sparsetools"
]
np.savez(sys.argv[2], *[product.data for product in products])
"""


def run_fresh(script: str, *argv: str) -> subprocess.CompletedProcess:
    """``script`` in a new interpreter that imports this checkout's repro."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )


def racing_operands(rng, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """A sparse block and a dense operand on each side of it, saved to
    ``path``; returns the reference products ``left @ block`` and
    ``block @ right``."""
    array = rng.standard_normal((120, 80)) * (rng.random((120, 80)) < 0.3)
    right, left = rng.standard_normal((80, 16)), rng.standard_normal((16, 120))
    right[0, :] = left[:, 0] = 0.0  # v * 0 with v < 0: a -0.0 a store would keep
    np.savez(path, sparse=array, left=left, right=right)
    block = CSCBlock.from_dense(array)
    return reference_stored_scatter(block, left, False), reference_stored_scatter(block, right, True)


def test_racing_threads_share_the_first_compiled_product(rng, tmp_path):
    """Racers that reach the first load together wait for one load of the
    extension -- and no ``scipy`` package import -- and all compute the
    reference's bits."""
    expected = racing_operands(rng, tmp_path / "operands.npz")
    done = run_fresh(FIRST_COMPILED_RACE, str(tmp_path / "operands.npz"), str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    products = np.load(tmp_path / "out.npz")
    assert len(products.files) == 6
    for slot, name in enumerate(products.files):
        assert same_bits(products[name], expected[slot % 2]), slot


#: Run in a fresh interpreter: the kernel is loaded first, then the process
#: imports ``scipy.sparse`` itself and multiplies through ``csc_array``.
SCIPY_AFTER_THE_KERNEL = """
import sys
import numpy as np
from repro.blocks import ops, sparse
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock

operands = np.load(sys.argv[1])
block = CSCBlock.from_dense(operands["sparse"])
left, right = operands["left"], operands["right"]
ours = [ops.matmul(DenseBlock(left), block).data, ops.matmul(block, DenseBlock(right)).data]
assert "scipy" not in sys.modules and "scipy.sparse" not in sys.modules
import scipy.sparse

assert sys.modules["scipy.sparse._sparsetools"] is sparse._sparsetools()
matrix = scipy.sparse.csc_array((block.values, block.row_idx, block.colptr), shape=block.shape)
np.savez(sys.argv[2], *ours, left @ matrix, matrix @ right)
"""


def test_scipy_sparse_still_imports_after_the_kernel(rng, tmp_path):
    """The loader leaves the package importable: ``csc_array @`` then runs
    the same loaded loops and gives the same bits as ``ops.matmul``."""
    expected = racing_operands(rng, tmp_path / "operands.npz")
    done = run_fresh(SCIPY_AFTER_THE_KERNEL, str(tmp_path / "operands.npz"), str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    products = [np.load(tmp_path / "out.npz")[f"arr_{slot}"] for slot in range(4)]
    for slot, product in enumerate(products):
        assert same_bits(product, expected[slot % 2]), slot


#: Run in a fresh interpreter: every registry app at its defaults, and GNMF
#: at the ``gnmf_kernels`` size, where every sparse product is wide.
REGISTRY_APPS = """
import sys
from repro import ClusterConfig, DMacSession
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload

runs = [(app, WorkloadParams(), False) for app in ALL_APPS]
runs.append(("gnmf", WorkloadParams(seed=1, scale=2e-2, factors=64, iterations=3), True))
for app, params, optimize in runs:
    built = build_workload(app, params)
    config = ClusterConfig(num_workers=4, threads_per_worker=2)
    with DMacSession(config, optimize=optimize) as session:
        session.run(built.program, built.inputs)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_no_registry_app_imports_the_scipy_package():
    """Every sparse product runs the compiled kernel, yet neither ``scipy``
    nor ``scipy.sparse`` is imported: the extension is loaded by itself."""
    done = run_fresh(REGISTRY_APPS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['scipy.sparse._sparsetools']"


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


def test_a_gnmf_job_folds_only_later_pairs(monkeypatch):
    """The count gate of docs/kernels.md on a ``gnmf_kernels`` job (the
    benchmark's parameters, 4 workers x 2 threads), counted from outside:
    an In-Place task calls ``ops.accumulate`` for its second pair onwards,
    the first product being the result block (219 pairs in 141 tasks, 78
    folds; 258 in 180 while ``W H H^T`` ran as ``(W H) H^T``), and every
    sparse product -- ``V`` is 9603 x 355 cut at 586, against 64 factors --
    runs the compiled loop."""
    counts = dict.fromkeys(("tasks", "pairs", "folds", "compiled"), 0)
    lock, in_task = threading.Lock(), threading.local()
    accumulate, run_task = ops.accumulate, LocalEngine._run_inplace_task

    def count(name, by=1):
        with lock:
            counts[name] += by

    def counted(name, function):
        def run(*args):
            count(name)
            return function(*args)

        return run

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

    monkeypatch.setattr(ops, "_sparse_product", counted("compiled", ops._sparse_product))
    monkeypatch.setattr(ops, "accumulate", counted_accumulate)
    monkeypatch.setattr(LocalEngine, "_run_inplace_task", counted_task)
    built = build_workload("gnmf", WorkloadParams(seed=11, scale=2e-2, factors=64, iterations=3))
    assert built.inputs["V"].shape == (9603, 355)
    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=2), optimize=True) as session:
        session.run(built.program, built.inputs)
    assert counts["folds"] == counts["pairs"] - counts["tasks"]
    assert (counts["tasks"], counts["pairs"], counts["folds"]) == (141, 219, 78)
    assert counts["compiled"] == 102


def test_a_wide_gnmf_job_keeps_its_output_bits():
    """A job whose every sparse product runs the compiled loop, pinned to
    the bits the rank-round cut it replaced produced (captured at that cut,
    ``sha256`` over each output's name and C-order bytes)."""
    built = build_workload("gnmf", WorkloadParams(seed=5, scale=2e-2, factors=64, iterations=2))
    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=2), optimize=True) as session:
        result = session.run(built.program, built.inputs)
    digest = hashlib.sha256()
    for name, matrix in sorted(result.matrices.items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    assert sorted(result.matrices) == ["H@3", "W@3"]
    assert digest.hexdigest() == (
        "eaeac23fd07ee80c9ebfe933bf6d2a2f207932099def751d0e4dc72d8867a84d"
    )
    assert (result.comm_bytes, result.simulated_seconds.hex()) == (1238208, "0x1.477a8fb58c8bbp-1")


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
