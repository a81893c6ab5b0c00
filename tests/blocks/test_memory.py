"""Tests for the memory model (Equation 2) and block-size rule (Equation 3)."""

import math

import pytest

from repro.blocks import memory
from repro.errors import BlockError


class TestBlockFormulas:
    def test_sparse_block_bytes(self):
        # Mem(b) = 4n + 8mns: Equation 2 over a matrix that is one block.
        assert memory.matrix_model_bytes(100, 50, 0.1, block_size=100) == (
            4 * 50 + 8 * 100 * 50 * 0.1
        )

    def test_dense_block_bytes(self):
        assert memory.dense_block_model_bytes(100, 50) == 4 * 100 * 50


class TestEquation2:
    def test_sparse_matrix_bytes(self):
        # Mem(A) = 4N(M/m) + 8MNS
        got = memory.matrix_model_bytes(1000, 500, 0.01, block_size=100)
        assert got == 4 * 500 * 10 + 8 * 1000 * 500 * 0.01

    def test_dense_matrix_insensitive_to_blocking(self):
        a = memory.matrix_model_bytes(1000, 500, 1.0, block_size=10, sparse=False)
        b = memory.matrix_model_bytes(1000, 500, 1.0, block_size=500, sparse=False)
        assert a == b == 4 * 1000 * 500

    def test_larger_blocks_use_less_sparse_memory(self):
        small = memory.matrix_model_bytes(10_000, 10_000, 0.001, block_size=100)
        large = memory.matrix_model_bytes(10_000, 10_000, 0.001, block_size=1000)
        assert large < small

    def test_index_overhead_dominates_for_tiny_blocks(self):
        # Paper Figure 8b: ~19 GB at 10k blocks vs ~6 GB ideal for LiveJournal.
        nodes, edges = 4_847_571, 68_993_773
        sparsity = edges / (nodes * nodes)
        tiny = memory.matrix_model_bytes(nodes, nodes, sparsity, block_size=10_000)
        ideal = 8 * edges + 4 * nodes
        assert tiny > 2.5 * ideal

    def test_rejects_bad_block_size(self):
        with pytest.raises(BlockError):
            memory.matrix_model_bytes(10, 10, 0.5, block_size=0)


class TestEquation3:
    def test_upper_bound_formula(self):
        # m <= sqrt(MN / LK)
        bound = memory.max_block_size(4_847_571, 4_847_571, workers=4, local_parallelism=8)
        assert bound == int(math.sqrt(4_847_571**2 / 32))

    def test_paper_livejournal_threshold(self):
        # Paper Section 6.3: threshold ~856k for LiveJournal on 4 nodes x 8 threads.
        bound = memory.max_block_size(4_847_571, 4_847_571, 4, 8)
        assert 800_000 < bound < 900_000

    def test_paper_socpokec_threshold(self):
        # ~289k for soc-pokec.
        bound = memory.max_block_size(1_632_803, 1_632_803, 4, 8)
        assert 250_000 < bound < 320_000

    def test_paper_citpatents_threshold(self):
        # ~667k for cit-Patents.
        bound = memory.max_block_size(3_774_768, 3_774_768, 4, 8)
        assert 620_000 < bound < 700_000

    def test_more_workers_means_smaller_blocks(self):
        four = memory.max_block_size(10_000, 10_000, 4, 8)
        twenty = memory.max_block_size(10_000, 10_000, 20, 8)
        assert twenty < four

    def test_rejects_bad_inputs(self):
        with pytest.raises(BlockError):
            memory.max_block_size(0, 10, 4, 8)
        with pytest.raises(BlockError):
            memory.max_block_size(10, 10, 0, 8)


class TestChooseBlockSize:
    def test_sits_under_the_bound(self):
        bound = memory.max_block_size(100_000, 100_000, 4, 8)
        chosen = memory.choose_block_size(100_000, 100_000, 4, 8)
        assert 0 < chosen <= bound

    def test_near_the_bound(self):
        bound = memory.max_block_size(100_000, 100_000, 4, 8)
        chosen = memory.choose_block_size(100_000, 100_000, 4, 8)
        assert chosen >= 0.8 * bound

    def test_capped_by_matrix_size(self):
        assert memory.choose_block_size(10, 10, 1, 1) <= 10

    def test_never_below_one(self):
        assert memory.choose_block_size(2, 2, 64, 64) == 1

    def test_rejects_bad_fraction(self):
        with pytest.raises(BlockError):
            memory.choose_block_size(10, 10, 1, 1, fraction_of_bound=0.0)
