"""Tests for distributed-matrix persistence."""

import tracemalloc

import numpy as np
import pytest

from repro.blocks import CoordinateMatrix
from repro.cli import main
from repro.config import ClusterConfig
from repro.errors import ReproError
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.io import load_matrix, read_matrix, save_matrix
from repro.matrix.primitives import broadcast_matrix
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from tests.blocks.test_coordinate import assert_same_block
from tests.conftest import random_sparse


@pytest.fixture
def ctx():
    return ClusterContext(ClusterConfig(num_workers=4, threads_per_worker=1))


class TestRoundTrip:
    def test_dense_roundtrip(self, ctx, rng, tmp_path):
        array = rng.random((20, 14))
        matrix = DistributedMatrix.from_numpy(ctx, array, 4)
        save_matrix(tmp_path / "m.npz", matrix)
        loaded = load_matrix(ctx, tmp_path / "m.npz", block_size=4)
        np.testing.assert_array_equal(loaded.to_numpy(), array)

    def test_sparse_roundtrip(self, ctx, rng, tmp_path):
        array = random_sparse(rng, 30, 22, 0.1)
        matrix = DistributedMatrix.from_numpy(ctx, array, 8)
        save_matrix(tmp_path / "m.npz", matrix)
        loaded = load_matrix(ctx, tmp_path / "m.npz", block_size=8)
        np.testing.assert_array_equal(loaded.to_numpy(), array)

    def test_reload_with_different_block_size_and_scheme(self, ctx, rng, tmp_path):
        array = random_sparse(rng, 24, 24, 0.2)
        matrix = DistributedMatrix.from_numpy(ctx, array, 4)
        save_matrix(tmp_path / "m.npz", matrix)
        loaded = load_matrix(ctx, tmp_path / "m.npz", block_size=6, scheme=Scheme.COL)
        assert loaded.block_size == 6
        assert loaded.scheme is Scheme.COL
        np.testing.assert_array_equal(loaded.to_numpy(), array)

    def test_broadcast_matrix_saves_one_copy(self, ctx, rng, tmp_path):
        array = rng.random((12, 12))
        replica = broadcast_matrix(DistributedMatrix.from_numpy(ctx, array, 4))
        save_matrix(tmp_path / "m.npz", replica)
        loaded = load_matrix(ctx, tmp_path / "m.npz", block_size=4)
        np.testing.assert_array_equal(loaded.to_numpy(), array)

    def test_all_zero_matrix(self, ctx, tmp_path):
        matrix = DistributedMatrix.from_numpy(ctx, np.zeros((8, 8)), 4)
        save_matrix(tmp_path / "z.npz", matrix)
        loaded = load_matrix(ctx, tmp_path / "z.npz", block_size=4)
        assert np.all(loaded.to_numpy() == 0)

    def test_load_is_free(self, ctx, rng, tmp_path):
        array = rng.random((12, 12))
        save_matrix(tmp_path / "m.npz", DistributedMatrix.from_numpy(ctx, array, 4))
        mark = ctx.ledger.snapshot()
        load_matrix(ctx, tmp_path / "m.npz", block_size=4)
        assert ctx.ledger.snapshot() == mark

    def test_bare_name_gets_npz_suffix(self, ctx, rng, tmp_path):
        array = rng.random((6, 6))
        save_matrix(tmp_path / "bare", DistributedMatrix.from_numpy(ctx, array, 4))
        loaded = load_matrix(ctx, tmp_path / "bare", block_size=4)
        np.testing.assert_array_equal(loaded.to_numpy(), array)


class TestNoDenseIntermediate:
    """The file holds coordinate triples; so does everything that reads or
    writes it.  A 20 000 x 20 000 matrix is 3.2 GB dense."""

    N, NNZ, LIMIT_MB = 20_000, 50_000, 50

    def test_save_load_bind_round_trip_stays_small(self, ctx, tmp_path, capsys):
        rng = np.random.default_rng(9)
        flat = rng.choice(self.N * self.N, size=self.NNZ, replace=False)
        original = CoordinateMatrix(
            flat // self.N, flat % self.N, rng.random(self.NNZ) + 0.5, (self.N, self.N)
        )
        script = tmp_path / "prog.dml"
        script.write_text(
            f"A = load({self.N}, {self.N}, sparsity={self.NNZ / self.N**2})\n"
            f"x = full({self.N}, 1, 1.0)\ny = A %*% x\ns = sum(y)\noutputScalar(s)\n"
        )

        tracemalloc.start()
        try:
            matrix = DistributedMatrix.from_numpy(ctx, original, 1_000)
            save_matrix(tmp_path / "big.npz", matrix)
            stored = read_matrix(tmp_path / "big.npz")
            loaded = load_matrix(ctx, tmp_path / "big.npz", block_size=1_000)
            assert main(["script", str(script), "--bind", f"A={tmp_path / 'big.npz'}"]) == 0
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak < self.LIMIT_MB * 2**20
        for name in ("rows", "cols", "values"):
            assert getattr(stored, name).tobytes() == getattr(original, name).tobytes()
        before, after = matrix.driver_grid(), loaded.driver_grid()
        assert before.keys() == after.keys() and len(before) > 300
        for key, block in before.items():
            assert_same_block(after[key], block)
        total = float(capsys.readouterr().out.split("scalar s = ")[1].split()[0])
        assert total == pytest.approx(original.values.sum(), rel=1e-5)

    def test_sparse_blocks_are_written_from_their_triples(self, ctx, rng, tmp_path, monkeypatch):
        from repro.blocks import CSCBlock

        array = random_sparse(rng, 16, 16, 0.1)
        matrix = DistributedMatrix.from_numpy(ctx, array, 4, storage="sparse")
        monkeypatch.setattr(CSCBlock, "to_numpy", lambda self: pytest.fail("block densified"))
        save_matrix(tmp_path / "m.npz", matrix)
        monkeypatch.undo()
        np.testing.assert_array_equal(np.asarray(read_matrix(tmp_path / "m.npz")), array)


class TestValidation:
    def test_missing_file(self, ctx, tmp_path):
        with pytest.raises(ReproError):
            load_matrix(ctx, tmp_path / "ghost.npz", block_size=4)

    def test_foreign_npz_rejected(self, ctx, tmp_path):
        np.savez(tmp_path / "other.npz", data=np.zeros(3))
        with pytest.raises(ReproError):
            load_matrix(ctx, tmp_path / "other.npz", block_size=4)
