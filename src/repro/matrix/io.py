"""Distributed-matrix persistence: save/load via compressed ``.npz`` files.

The on-disk format is coordinate triples of one logical copy plus the
matrix geometry, so sparse matrices stay small on disk and a saved matrix
can be reloaded into any cluster size, scheme, or block size (the load
re-partitions, mirroring a DFS read -- no cluster traffic is charged, like
:meth:`DistributedMatrix.from_numpy`).
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.blocks.coordinate import CoordinateMatrix
from repro.errors import ReproError
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext

#: Format marker stored inside every file.
FORMAT_TAG = "repro.distributed-matrix.v1"


def save_matrix(path: str | pathlib.Path, matrix: DistributedMatrix) -> None:
    """Write one logical copy of the matrix to ``path`` (``.npz``)."""
    rows_idx = [np.empty(0, dtype=np.int64)]
    cols_idx = [np.empty(0, dtype=np.int64)]
    values = [np.empty(0, dtype=np.float64)]
    block = matrix.block_size
    for (bi, bj), blk in sorted(matrix.driver_grid().items()):
        if blk.is_sparse:
            local_rows, local_cols, stored = blk.to_coo()
        else:
            local_rows, local_cols = np.nonzero(blk.data)
            stored = blk.data[local_rows, local_cols]
        # int64 offsets: a CSC block's own indices are int32.
        rows_idx.append(local_rows + np.int64(bi * block))
        cols_idx.append(local_cols + np.int64(bj * block))
        values.append(stored)
    np.savez_compressed(
        path,
        format=np.array(FORMAT_TAG),
        shape=np.array(matrix.shape, dtype=np.int64),
        rows=np.concatenate(rows_idx),
        cols=np.concatenate(cols_idx),
        values=np.concatenate(values),
    )


def read_matrix(path: str | pathlib.Path) -> CoordinateMatrix:
    """The matrix a :func:`save_matrix` file holds, as the coordinate
    triples it stores: nothing of the matrix's dense size is allocated."""
    path = pathlib.Path(path)
    if not path.exists():
        # numpy appends .npz when saving a bare name; mirror that on load.
        with_suffix = path.with_suffix(path.suffix + ".npz")
        if with_suffix.exists():
            path = with_suffix
        else:
            raise ReproError(f"no matrix file at {path}")
    with np.load(path, allow_pickle=False) as payload:
        if "format" not in payload or str(payload["format"]) != FORMAT_TAG:
            raise ReproError(f"{path} is not a {FORMAT_TAG} file")
        return CoordinateMatrix(
            payload["rows"], payload["cols"], payload["values"], tuple(payload["shape"])
        )


def load_matrix(
    context: ClusterContext,
    path: str | pathlib.Path,
    block_size: int,
    scheme: Scheme = Scheme.ROW,
    storage: str = "auto",
) -> DistributedMatrix:
    """Load a matrix previously written by :func:`save_matrix`."""
    return DistributedMatrix.from_numpy(context, read_matrix(path), block_size, scheme, storage)
