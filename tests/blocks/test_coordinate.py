"""The coordinate input form: one canonical value per logical matrix, cut
into exactly the block grid its dense form is cut into."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.blocks import CoordinateMatrix, CSCBlock, DenseBlock, as_matrix, assemble, split
from repro.errors import BlockError

#: Values a coordinate list may carry: ordinary floats plus the ones that
#: decide what is *stored* (zeros of both signs are not, NaN and inf are).
VALUES = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.0, -1.0]),
)

#: Coalescing a duplicated coordinate may add inf to -inf; the NaN is the point.
inf_minus_inf = pytest.mark.filterwarnings("ignore:invalid value encountered in add")


@st.composite
def triples(draw, max_dim=14):
    """``(rows, cols, values, shape)``: unsorted, with duplicates (up to
    twice as many triples as cells), 1 x n and n x 1 included, so that
    blocks land on both sides of the 0.3 density election."""
    shape = (draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim)))
    count = draw(st.integers(0, 2 * shape[0] * shape[1]))
    rows = draw(arrays(np.int64, count, elements=st.integers(0, shape[0] - 1)))
    cols = draw(arrays(np.int64, count, elements=st.integers(0, shape[1] - 1)))
    values = draw(arrays(np.float64, count, elements=VALUES))
    return rows, cols, values, shape


def assert_same_block(got, expected):
    """Same storage class, same shape, same bytes in every backing array."""
    assert type(got) is type(expected)
    assert got.shape == expected.shape
    names = ("values", "row_idx", "colptr") if got.is_sparse else ("data",)
    for name in names:
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def non_zero_blocks(grid):
    return {key: block for key, block in grid.items() if np.count_nonzero(block.to_numpy())}


class TestCanonicalForm:
    def test_sorted_column_major_and_read_only(self):
        matrix = CoordinateMatrix([2, 0, 1], [0, 1, 0], [3.0, 2.0, 1.0], (3, 2))
        assert matrix.rows.tolist() == [1, 2, 0]
        assert matrix.cols.tolist() == [0, 0, 1]
        assert matrix.values.tolist() == [1.0, 3.0, 2.0]
        for array in (matrix.rows, matrix.cols, matrix.values):
            assert not array.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            matrix.shape = (9, 9)

    def test_duplicates_are_summed_and_zeros_dropped(self):
        matrix = CoordinateMatrix(
            [0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 0, 1], [1.0, 2.0, 5.0, -5.0, 0.0, -0.0], (3, 2)
        )
        assert (matrix.rows.tolist(), matrix.cols.tolist()) == ([0], [0])
        assert matrix.values.tolist() == [3.0]

    def test_nan_and_inf_are_stored(self):
        matrix = CoordinateMatrix([0, 1], [0, 0], [float("nan"), float("inf")], (2, 1))
        assert matrix.nnz == 2 == np.count_nonzero(matrix.to_numpy())

    def test_does_not_alias_the_callers_arrays(self):
        rows, cols, values = np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0])
        matrix = CoordinateMatrix(rows, cols, values, (2, 2))
        values[:] = 9.0
        rows[:] = 1
        assert matrix.values.tolist() == [1.0, 2.0]
        assert matrix.rows.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "rows, cols, values",
        [([3], [0], [1.0]), ([0], [2], [1.0]), ([-1], [0], [1.0]), ([0, 1], [0], [1.0])],
    )
    def test_malformed_triples_are_rejected(self, rows, cols, values):
        with pytest.raises(BlockError):
            CoordinateMatrix(rows, cols, values, (3, 2))

    @inf_minus_inf
    @given(triples())
    def test_it_is_the_form_from_coo_builds(self, data):
        rows, cols, values, shape = data
        matrix = CoordinateMatrix(rows, cols, values, shape)
        block_rows, block_cols, block_values = CSCBlock.from_coo(rows, cols, values, shape).to_coo()
        assert matrix.rows.tolist() == block_rows.tolist()
        assert matrix.cols.tolist() == block_cols.tolist()
        assert matrix.values.tobytes() == block_values.tobytes()


class TestArrayFace:
    def test_what_the_boundary_reads(self):
        matrix = CoordinateMatrix([0, 3], [1, 2], [2.0, 4.0], (4, 3))
        assert (matrix.shape, matrix.size, matrix.nnz) == ((4, 3), 12, 2)
        assert matrix.nbytes == 2 * (8 + 8 + 8)
        dense = np.zeros((4, 3))
        dense[0, 1], dense[3, 2] = 2.0, 4.0
        assert np.array_equal(matrix.to_numpy(), dense)
        assert np.array_equal(np.asarray(matrix), dense)
        assert np.asarray(matrix, dtype=np.float32).dtype == np.float32
        assert np.count_nonzero(matrix) == 2

    @inf_minus_inf
    @given(triples())
    def test_the_transpose_swaps_rows_and_columns(self, data):
        matrix = CoordinateMatrix(*data)
        transposed = matrix.T
        assert isinstance(transposed, CoordinateMatrix)
        assert (transposed.shape, transposed.nnz) == (matrix.shape[::-1], matrix.nnz)
        assert np.asarray(transposed).tobytes() == np.asarray(matrix).T.tobytes()

    def test_numpy_counts_without_densifying_and_densifies_for_the_rest(self, monkeypatch):
        """NEP 18: ``np.count_nonzero(m)`` answers ``m.nnz``; every other
        numpy function (and ``count_nonzero`` with an axis) sees
        ``np.asarray(m)``, as it did before the hook."""
        matrix = CoordinateMatrix([0, 3], [1, 2], [2.0, 4.0], (4, 3))
        dense = matrix.to_numpy()
        assert np.count_nonzero(matrix, axis=0).tolist() == [0, 1, 1]
        assert np.linalg.norm(matrix) == np.linalg.norm(dense)
        assert np.allclose(matrix, dense) and not np.allclose(matrix, dense + 1.0)
        assert np.concatenate([matrix, dense]).tobytes() == np.concatenate([dense, dense]).tobytes()

        def densify(self):
            raise AssertionError("np.count_nonzero densified a coordinate matrix")

        monkeypatch.setattr(CoordinateMatrix, "to_numpy", densify)
        count = np.count_nonzero(matrix)
        assert count == 2 and type(count) is int

    def test_as_matrix_keeps_the_form(self):
        matrix = CoordinateMatrix([0], [0], [1.0], (1, 1))
        assert as_matrix(matrix) is matrix
        assert as_matrix([[1, 2]]).dtype == np.float64


@inf_minus_inf
@given(triples(), st.integers(1, 6), st.sampled_from(["auto", "dense", "sparse"]))
def test_cut_equals_the_cut_of_the_dense_form(data, block_size, storage):
    """Same keys (all-zero blocks left out), same block class, same bytes."""
    matrix = CoordinateMatrix(*data)
    dense = matrix.to_numpy()
    got = split(matrix, block_size, storage=storage)
    expected = non_zero_blocks(split(dense, block_size, storage=storage))
    assert got.keys() == expected.keys()
    for key in expected:
        assert_same_block(got[key], expected[key])
    assert assemble(got, matrix.shape, block_size).tobytes() == dense.tobytes()


def test_density_election_is_per_block():
    """One block at exactly 0.3 (dense), one just under (CSC), one empty."""
    dense = np.zeros((10, 30))
    dense[:3, :10] = 1.0  # block (0, 0): 30 of 100
    dense[:3, 10:20] = 2.0
    dense[2, 19] = 0.0  # block (0, 1): 29 of 100
    rows, cols = np.nonzero(dense)
    grid = split(CoordinateMatrix(rows, cols, dense[rows, cols], dense.shape), 10)
    assert {key: type(block) for key, block in grid.items()} == {
        (0, 0): DenseBlock,
        (0, 1): CSCBlock,
    }


def test_unknown_storage_policy_is_rejected():
    with pytest.raises(BlockError):
        split(CoordinateMatrix([0], [0], [1.0], (2, 2)), 2, storage="packed")


def test_cut_never_densifies(monkeypatch):
    monkeypatch.setattr(
        CoordinateMatrix, "to_numpy", lambda self: pytest.fail("coordinate input densified")
    )
    nodes = 50_000  # 20 GB dense
    rng = np.random.default_rng(0)
    matrix = CoordinateMatrix(
        rng.integers(0, nodes, 10_000), rng.integers(0, nodes, 10_000), np.ones(10_000),
        (nodes, nodes),
    )
    grid = split(matrix, 5_000)
    assert sum(block.nnz for block in grid.values()) == matrix.nnz
    assert all(block.is_sparse for block in grid.values())


def test_cut_sorts_and_canonicalises_nothing(monkeypatch):
    """The matrix's triples are already canonical: one compiled counting
    pass by ``(block row, column)`` lays every block out, so no sort and no
    ``canonical_triples`` / ``from_coo`` pass runs -- and each block holds
    read-only index arrays the constructor took without a copy."""
    rng = np.random.default_rng(3)
    matrix = CoordinateMatrix(
        rng.integers(0, 300, 4_000), rng.integers(0, 200, 4_000), rng.random(4_000) + 0.5,
        (300, 200),
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("the coordinate cut sorted or canonicalised")

    for name in ("argsort", "sort", "unique", "lexsort"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr("repro.blocks.sparse.canonical_triples", forbidden)
    monkeypatch.setattr(CSCBlock, "from_coo", forbidden)
    grid = split(matrix, 64)
    assert len(grid) == 5 * 4 and all(block.is_sparse for block in grid.values())
    for block in grid.values():
        assert not block.row_idx.flags.writeable and not block.colptr.flags.writeable
    assert assemble(grid, matrix.shape, 64).tobytes() == matrix.to_numpy().tobytes()
