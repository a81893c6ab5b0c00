"""Tests for matrix <-> block-grid conversion."""

import numpy as np
import pytest

from repro.blocks import conversion, memory
from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock
from repro.errors import BlockError
from tests.conftest import random_sparse


class TestGridGeometry:
    def test_grid_shape_exact(self):
        assert conversion.grid_shape(12, 8, 4) == (3, 2)

    def test_grid_shape_ragged(self):
        assert conversion.grid_shape(13, 9, 4) == (4, 3)

    def test_grid_shape_block_larger_than_matrix(self):
        assert conversion.grid_shape(3, 3, 10) == (1, 1)

    def test_block_extent(self):
        assert conversion.block_extent(0, 10, 4) == (0, 4)
        assert conversion.block_extent(2, 10, 4) == (8, 10)

    def test_block_extent_out_of_range(self):
        with pytest.raises(BlockError):
            conversion.block_extent(3, 10, 4)

    def test_grid_shape_rejects_bad_block_size(self):
        with pytest.raises(BlockError):
            conversion.grid_shape(10, 10, 0)


class TestSplitAssemble:
    def test_roundtrip(self, rng):
        array = rng.random((13, 9))
        grid = conversion.split(array, 4)
        np.testing.assert_array_equal(conversion.assemble(grid, (13, 9), 4), array)

    def test_roundtrip_sparse(self, rng):
        array = random_sparse(rng, 17, 11, 0.1)
        grid = conversion.split(array, 5, storage="sparse")
        assert all(isinstance(b, CSCBlock) for b in grid.values())
        np.testing.assert_array_equal(conversion.assemble(grid, (17, 11), 5), array)

    def test_storage_dense_forced(self, rng):
        grid = conversion.split(random_sparse(rng, 8, 8, 0.05), 4, storage="dense")
        assert all(isinstance(b, DenseBlock) for b in grid.values())

    def test_storage_auto_mixed(self, rng):
        array = np.zeros((8, 8))
        array[:4, :4] = rng.random((4, 4))  # one dense corner
        grid = conversion.split(array, 4, storage="auto")
        assert isinstance(grid[(0, 0)], DenseBlock)
        assert isinstance(grid[(1, 1)], CSCBlock)

    def test_unknown_storage(self, rng):
        with pytest.raises(BlockError):
            conversion.split(rng.random((4, 4)), 2, storage="compressed")

    def test_rejects_1d(self):
        with pytest.raises(BlockError):
            conversion.split(np.arange(4), 2)

    def test_assemble_missing_blocks_are_zero(self, rng):
        array = rng.random((8, 8))
        grid = conversion.split(array, 4)
        del grid[(1, 1)]
        out = conversion.assemble(grid, (8, 8), 4)
        assert np.all(out[4:, 4:] == 0)
        np.testing.assert_array_equal(out[:4, :4], array[:4, :4])

    def test_assemble_rejects_bad_index(self, rng):
        grid = {(5, 5): DenseBlock(rng.random((4, 4)))}
        with pytest.raises(BlockError):
            conversion.assemble(grid, (8, 8), 4)

    def test_assemble_rejects_bad_shape(self, rng):
        grid = {(0, 0): DenseBlock(rng.random((3, 3)))}
        with pytest.raises(BlockError):
            conversion.assemble(grid, (8, 8), 4)

    def test_edge_blocks_are_smaller(self, rng):
        grid = conversion.split(rng.random((10, 7)), 4)
        assert grid[(2, 1)].shape == (2, 3)

    def test_grid_model_nbytes(self, rng):
        """A grid's blocks, summed, weigh what Equation 2 charges the matrix."""
        grid = conversion.split(rng.random((8, 8)), 4, storage="dense")
        total = sum(block.model_nbytes for block in grid.values())
        assert total == memory.matrix_model_bytes(8, 8, 1.0, 4, sparse=False) == 4 * 8 * 8
