"""Coordinate-form matrices: the sparse half of the system boundary.

A matrix enters the system in one of two forms: a dense 2-D ndarray, or a
:class:`CoordinateMatrix` -- the ``(row, col, value)`` triples of its
non-zeros plus its shape, MLlib's ``CoordinateMatrix`` and the form
:mod:`repro.matrix.io` keeps on disk.  The form only decides how much the
boundary costs: :func:`repro.blocks.split` cuts either into the same block
grid, bit for bit, and a graph with 0.3 % non-zeros is never held as N x N
floats on the way in.

It is an input value, not a matrix type to compute with: it has no
arithmetic beyond its transpose, and code that wants an ndarray asks for
one (:meth:`CoordinateMatrix.to_numpy`, ``np.asarray``).  Counting its
non-zeros is not such a request: ``np.count_nonzero`` reads ``nnz``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.blocks.sparse import canonical_triples


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class CoordinateMatrix:
    """An immutable sparse matrix held as coordinate triples.

    The triples are kept in the canonical form of
    :meth:`CSCBlock.from_coo <repro.blocks.sparse.CSCBlock.from_coo>`:
    sorted column-major, duplicate coordinates coalesced by summing their
    values in the order given, zeros (``-0.0`` too; not NaN) dropped -- so
    a logical matrix has exactly one coordinate form, and ``nnz`` counts
    what ``np.count_nonzero`` of the dense matrix counts.  The three arrays
    are the matrix's own and read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        shape = (int(self.shape[0]), int(self.shape[1]))
        triples = canonical_triples(self.rows, self.cols, self.values, shape)
        for name, array in zip(("rows", "cols", "values"), triples):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "shape", shape)

    @property
    def size(self) -> int:
        """Number of cells, zero or not (``ndarray.size``)."""
        return self.shape[0] * self.shape[1]

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Bytes this object holds (not those of the dense matrix)."""
        return self.rows.nbytes + self.cols.nbytes + self.values.nbytes

    @property
    def T(self) -> "CoordinateMatrix":
        """The transpose: the same triples with rows and columns swapped."""
        # Column-major triples, sorted stably by row, are in the transpose's
        # column-major order (a radix sort up to 65 536 rows), so its
        # constructor finds nothing left to sort.
        order = np.argsort(self.rows.astype(np.min_scalar_type(self.shape[0])), kind="stable")
        return CoordinateMatrix(
            self.cols[order], self.rows[order], self.values[order], self.shape[::-1]
        )

    def to_numpy(self) -> np.ndarray:
        """The dense ``float64`` matrix."""
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.rows, self.cols] = self.values
        return dense

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.to_numpy().astype(dtype, copy=False)

    def __array_function__(self, func, types, args, kwargs):
        """NEP 18: ``np.count_nonzero(m)`` is ``m.nnz``, read without
        building the dense matrix; every other numpy function runs as on
        ``np.asarray(m)``."""
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.nnz
        return func._implementation(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoordinateMatrix({self.shape[0]}x{self.shape[1]}, nnz={self.nnz})"


def as_matrix(value: object) -> "np.ndarray | CoordinateMatrix":
    """``value`` in one of the two input forms: a coordinate matrix as it
    is, anything else as a ``float64`` ndarray."""
    if isinstance(value, CoordinateMatrix):
        return value
    return np.asarray(value, dtype=np.float64)
