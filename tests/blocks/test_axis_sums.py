"""Dedicated tests for the per-axis block sum kernels (the CSC column-sum
uses ``np.add.reduceat``, whose empty-column behaviour needs pinning)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.blocks.dense import DenseBlock
from repro.blocks.ops import block_col_sums, block_row_sums
from repro.blocks.sparse import CSCBlock
from tests.conftest import random_sparse


class TestDense:
    def test_row_sums(self, rng):
        array = rng.random((7, 5))
        np.testing.assert_allclose(
            block_row_sums(DenseBlock(array)).data, array.sum(1, keepdims=True)
        )

    def test_col_sums(self, rng):
        array = rng.random((7, 5))
        np.testing.assert_allclose(
            block_col_sums(DenseBlock(array)).data, array.sum(0, keepdims=True)
        )


class TestSparseEdgeCases:
    def test_empty_block(self):
        block = CSCBlock.empty(4, 6)
        assert np.all(block_row_sums(block).data == 0)
        assert np.all(block_col_sums(block).data == 0)

    def test_single_empty_column_between_full_ones(self):
        array = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0]])
        block = CSCBlock.from_dense(array)
        np.testing.assert_array_equal(
            block_col_sums(block).data, np.array([[4.0, 0.0, 6.0]])
        )

    def test_leading_and_trailing_empty_columns(self):
        array = np.array([[0.0, 5.0, 0.0]])
        block = CSCBlock.from_dense(array)
        np.testing.assert_array_equal(
            block_col_sums(block).data, np.array([[0.0, 5.0, 0.0]])
        )

    def test_all_mass_in_last_column(self):
        array = np.zeros((3, 4))
        array[:, 3] = [1.0, 2.0, 3.0]
        block = CSCBlock.from_dense(array)
        np.testing.assert_array_equal(
            block_col_sums(block).data, np.array([[0.0, 0.0, 0.0, 6.0]])
        )

    def test_duplicate_rows_in_column_accumulate(self):
        block = CSCBlock.from_coo(
            np.array([0, 2, 1]), np.array([1, 1, 1]), np.array([1.0, 2.0, 4.0]), (3, 2)
        )
        np.testing.assert_array_equal(block_col_sums(block).data, np.array([[0.0, 7.0]]))
        np.testing.assert_array_equal(
            block_row_sums(block).data, np.array([[1.0], [4.0], [2.0]])
        )

    def test_negative_values(self, rng):
        array = random_sparse(rng, 6, 6, 0.4) - 0.3
        array[np.abs(array) < 1e-9] = 0.0
        block = CSCBlock.from_dense(array)
        np.testing.assert_allclose(
            block_row_sums(block).data, array.sum(1, keepdims=True), atol=1e-12
        )
        np.testing.assert_allclose(
            block_col_sums(block).data, array.sum(0, keepdims=True), atol=1e-12
        )


def test_sparse_row_sums_add_in_storage_order_bit_for_bit(rng):
    """A row sums its stored entries one after the other, column by column
    (``bincount`` order, the order of the ``np.add.at`` scatter it
    replaced): on mixed magnitudes any other order shows in the last bits."""
    array = rng.standard_normal((9, 40)) * 10.0 ** rng.integers(-12, 13, (9, 40))
    array[rng.random((9, 40)) < 0.5] = 0.0
    array[4, :] = 0.0  # an empty row
    array[[2, 7], :] = 0.0
    array[7, [3, 20]] = [1e16, -1e16]  # a row that cancels to 0.0 ...
    array[2, [0, 1, 2]] = [1e16, 1.0, -1e16]  # ... and one that loses its 1.0
    expected = []
    for row in array:
        total = 0.0
        for value in row[row != 0].tolist():
            total = total + value
        expected.append([total])
    sums = block_row_sums(CSCBlock.from_dense(array)).data
    assert sums.dtype == np.float64 and sums.shape == (9, 1)
    assert sums.tobytes() == np.array(expected).tobytes()
    assert sums[4, 0] == sums[7, 0] == sums[2, 0] == 0.0


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 100), st.integers(0, 6))
def test_property_matches_numpy(rows, cols, seed, density_tenths):
    rng = np.random.default_rng(seed)
    array = rng.random((rows, cols))
    array[rng.random((rows, cols)) > density_tenths / 10] = 0.0
    for block in (DenseBlock(array), CSCBlock.from_dense(array)):
        np.testing.assert_allclose(
            block_row_sums(block).data, array.sum(1, keepdims=True), atol=1e-12
        )
        np.testing.assert_allclose(
            block_col_sums(block).data, array.sum(0, keepdims=True), atol=1e-12
        )
