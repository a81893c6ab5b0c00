"""Sparse matrix blocks in Compressed Sparse Column (CSC) format.

This is a from-scratch CSC implementation following Figure 5 of the paper:
three arrays hold a sparse ``m x n`` block --

* ``values``  -- the non-zero entries, column-major order (``float64``),
* ``row_idx`` -- the row index of each non-zero (``int32``),
* ``colptr``  -- for each column ``j``, ``colptr[j]`` is the offset of the
  first entry of column ``j`` in the other two arrays (``int32``,
  length ``n + 1``).

The paper's memory model for a sparse block with ``m x n`` size and
sparsity ``s`` is ``Mem(b) = 4n + 8mns`` bytes (Section 5.3): a 4-byte
column-start entry per column plus 8 bytes per stored non-zero.
:attr:`CSCBlock.model_nbytes` implements exactly that; the real allocation
(8-byte float values) is available as :attr:`CSCBlock.actual_nbytes`.

Row indices are kept sorted within each column and duplicate coordinates
are coalesced by summation, so every logical matrix has a unique CSC form.
Every classmethod constructor produces that form; the raw constructor
checks lengths and ranges only, so a caller that hands it arrays must hand
it canonical ones (unique coordinates, rows ascending inside each column):
every kernel, :meth:`CSCBlock.transpose` included, assumes it.

The two index arrays of a block are its own and read-only once it is built
(``values`` stays writable), so they -- and the per-entry column ids
derived from them -- can be shared between blocks and kept instead of
recomputed.  Every constructor does O(nnz) work and sorts only what is
actually unsorted.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from types import ModuleType

import numpy as np

from repro.blocks.dense import DenseBlock
from repro.errors import BlockError

#: Bytes per column-start entry in the paper's model.
CSC_MODEL_BYTES_PER_COLUMN = 4
#: Bytes per stored non-zero in the paper's model (index + value).
CSC_MODEL_BYTES_PER_NNZ = 8


#: scipy's compiled CSR/CSC loops, the one native kernel of every sparse
#: block product and of the coordinate cut; loaded on first use.
_SPARSETOOLS = "scipy.sparse._sparsetools"
_loading = threading.Lock()


@functools.cache
def _sparsetools() -> ModuleType:
    """scipy's ``_sparsetools`` extension, loaded from its file alone: neither
    ``scipy/__init__`` nor ``scipy/sparse/__init__`` runs, so the first
    caller pays under 1 ms and ~0.2 MB instead of the package import's
    0.1-0.2 s and ~16 MB.  The module is registered under its own name, so
    a later ``import scipy.sparse`` finds it, and so do first callers that
    raced here and waited for the lock."""
    with _loading:
        return sys.modules.get(_SPARSETOOLS) or _load_sparsetools()


def _load_sparsetools() -> ModuleType:
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy and scipy.submodule_search_locations) or ()
    # The file's spec carries an ``ExtensionFileLoader``; finding it imports nothing.
    spec = importlib.machinery.PathFinder.find_spec(
        _SPARSETOOLS, [os.path.join(root, "sparse") for root in roots]
    )
    if spec is None:
        raise ImportError(f"sparse block kernels need scipy's {_SPARSETOOLS} extension")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.setdefault(_SPARSETOOLS, module)
    return module


def _index_array(array: np.ndarray) -> np.ndarray:
    """A read-only ``int32`` array a block can share with its copies: one
    that arrives read-only is another block's and is taken as is, anything
    else is copied, so no later write of the caller's shows through."""
    if isinstance(array, np.ndarray) and array.dtype == np.int32 and not array.flags.writeable:
        return array
    owned = np.array(array, dtype=np.int32)
    owned.flags.writeable = False
    return owned


def _strictly_increasing(keys: np.ndarray) -> bool:
    return bool(np.all(keys[1:] > keys[:-1]))


def _colptr(cols: np.ndarray, width: int) -> np.ndarray:
    """Column-start offsets for entries with the given column ids."""
    counts = np.bincount(cols, minlength=width)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int32)


def canonical_triples(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unique form of coordinate triples: ``(rows, cols, values)`` sorted
    column-major, duplicate coordinates coalesced by summing their values in
    the order given, zeros dropped.  The arrays returned are new."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (len(rows) == len(cols) == len(values)):
        raise BlockError("COO component arrays must have equal length")
    m, n = shape
    if len(rows) and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
        raise BlockError(f"COO coordinates out of range for shape {shape}")

    # Sort column-major, coalesce duplicates, drop explicit zeros -- each
    # only when the triples need it: canonical input (what every
    # pattern-preserving kernel passes) costs one comparison pass.
    keys = cols * m + rows
    if not _strictly_increasing(keys):
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        if not _strictly_increasing(keys):
            keys, inverse = np.unique(keys, return_inverse=True)
            summed = np.zeros(len(keys), dtype=np.float64)
            np.add.at(summed, inverse, values)
            values = summed
    # ``!= 0`` drops -0.0 and keeps NaN: the entries a coalescing sum
    # started at 0.0 keeps, so single and duplicated coordinates agree.
    # The mask also copies, so the result never aliases the caller's arrays.
    stored = values != 0.0
    keys, values = keys[stored], values[stored]
    out_cols, out_rows = np.divmod(keys, m)
    return out_rows, out_cols, values


class CSCBlock:
    """A sparse sub-matrix block stored in compressed sparse column form."""

    __slots__ = ("values", "row_idx", "colptr", "_shape", "_column_idx")

    is_sparse = True

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray,
        row_idx: np.ndarray,
        colptr: np.ndarray,
    ) -> None:
        rows, cols = shape
        values = np.asarray(values, dtype=np.float64)
        row_idx = _index_array(row_idx)
        colptr = _index_array(colptr)
        if rows < 0 or cols < 0:
            raise BlockError(f"negative block shape {shape}")
        if values.ndim != 1 or row_idx.ndim != 1 or colptr.ndim != 1:
            raise BlockError("CSC component arrays must be one-dimensional")
        if len(values) != len(row_idx):
            raise BlockError(
                f"values ({len(values)}) and row_idx ({len(row_idx)}) lengths differ"
            )
        if len(colptr) != cols + 1:
            raise BlockError(f"colptr must have length cols+1={cols + 1}, got {len(colptr)}")
        if len(colptr) > 0 and (colptr[0] != 0 or colptr[-1] != len(values)):
            raise BlockError("colptr must start at 0 and end at nnz")
        if np.any(np.diff(colptr) < 0):
            raise BlockError("colptr must be non-decreasing")
        if len(row_idx) and (row_idx.min() < 0 or row_idx.max() >= rows):
            raise BlockError("row index out of range")
        self._shape = (int(rows), int(cols))
        self.values = values
        self.row_idx = row_idx
        self.colptr = colptr
        self._column_idx: np.ndarray | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSCBlock":
        """Build a CSC block from coordinate triples.

        Duplicate coordinates are coalesced by summing their values; explicit
        zeros are dropped so the stored non-zeros equal the logical ones.
        """
        rows, cols, values = canonical_triples(rows, cols, values, shape)
        return cls(shape, values, rows, _colptr(cols, shape[1]))

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CSCBlock":
        """Compress a dense 2-D array into CSC form."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise BlockError(f"expected a 2-D array, got ndim={arr.ndim}")
        return cls._from_mask(arr, arr != 0)

    @classmethod
    def _from_mask(cls, arr: np.ndarray, pattern: np.ndarray) -> "CSCBlock":
        """:meth:`from_dense` for a caller that already holds
        ``pattern = arr != 0`` (block cutting counts it first).  A row-major
        scan of the mask: transposing it to scan column-major costs more
        than sorting the hits."""
        rows, cols = np.divmod(np.flatnonzero(pattern), arr.shape[1])
        return cls._from_row_major(rows, cols, arr[rows, cols], arr.shape)

    @classmethod
    def _from_row_major(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSCBlock":
        """A block from unique, non-zero triples sorted row-major: a stable
        sort by column leaves the rows ascending inside every column, which
        is the canonical form.  The column ids are sorted in the narrowest
        dtype that holds them: numpy radix-sorts 8- and 16-bit keys."""
        keys = cols.astype(np.min_scalar_type(shape[1]))
        order = np.argsort(keys, kind="stable")
        return cls(shape, values[order], rows[order], _colptr(cols, shape[1]))

    @classmethod
    def empty(cls, rows: int, cols: int) -> "CSCBlock":
        """An all-zero sparse block."""
        return cls(
            (rows, cols),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int32),
            np.zeros(cols + 1, dtype=np.int32),
        )

    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        sparsity: float,
        rng: np.random.Generator,
    ) -> "CSCBlock":
        """A random sparse block with the requested expected sparsity."""
        if not 0.0 <= sparsity <= 1.0:
            raise BlockError(f"sparsity must lie in [0, 1], got {sparsity}")
        nnz = rng.binomial(rows * cols, sparsity) if rows * cols else 0
        flat = rng.choice(rows * cols, size=nnz, replace=False) if nnz else np.empty(0, int)
        values = rng.random(nnz) + 1e-12  # strictly positive: never an explicit zero
        return cls.from_coo(flat % rows, flat // rows, values, (rows, cols))

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def sparsity(self) -> float:
        rows, cols = self._shape
        if rows == 0 or cols == 0:
            return 0.0
        return self.nnz / (rows * cols)

    @property
    def model_nbytes(self) -> int:
        """Memory charge under the paper's model: ``4n + 8 * nnz`` bytes."""
        __, cols = self._shape
        return CSC_MODEL_BYTES_PER_COLUMN * cols + CSC_MODEL_BYTES_PER_NNZ * self.nnz

    @property
    def actual_nbytes(self) -> int:
        """Real bytes held by the three backing arrays."""
        return self.values.nbytes + self.row_idx.nbytes + self.colptr.nbytes

    # -- views and conversions ---------------------------------------------

    def column_indices(self) -> np.ndarray:
        """The column index of each stored non-zero, in storage order.

        Computed on first use and kept (read-only, like the arrays it is
        derived from); host-side only, not part of the memory model.  Two
        threads racing here compute the same array.
        """
        if self._column_idx is None:
            counts = np.diff(self.colptr)
            column_idx = np.repeat(np.arange(self._shape[1], dtype=np.int32), counts)
            column_idx.flags.writeable = False
            self._column_idx = column_idx
        return self._column_idx

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate triples ``(rows, cols, values)`` in column-major order
        (copies: the caller may write to them)."""
        return self.row_idx.copy(), self.column_indices().copy(), self.values.copy()

    def to_numpy(self) -> np.ndarray:
        """Decompress into a dense numpy array."""
        dense = np.zeros(self._shape, dtype=np.float64)
        if self.nnz:
            dense[self.row_idx, self.column_indices()] = self.values
        return dense

    def to_dense_block(self) -> DenseBlock:
        return DenseBlock(self.to_numpy())

    def copy(self) -> "CSCBlock":
        """An independent block: own ``values``, shared (read-only) indices."""
        return self.with_values(self.values.copy())

    def with_values(self, values: np.ndarray) -> "CSCBlock":
        """A block with this block's pattern and the given stored values
        (one per stored entry, in storage order)."""
        block = CSCBlock(self._shape, values, self.row_idx, self.colptr)
        block._column_idx = self._column_idx
        return block

    def transpose(self) -> "CSCBlock":
        """The transposed block in canonical CSC form (zeros written into
        ``values`` are dropped): this block's storage order is row-major
        order of the transpose.  Like every kernel it takes this block to
        be canonical; duplicate coordinates forced through the raw
        constructor are carried over, not coalesced."""
        m, n = self._shape
        stored = self.values != 0.0
        return CSCBlock._from_row_major(
            self.column_indices()[stored], self.row_idx[stored], self.values[stored], (n, m)
        )

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of the stored entries of column ``j``."""
        if not 0 <= j < self._shape[1]:
            raise BlockError(f"column {j} out of range for shape {self._shape}")
        start, stop = self.colptr[j], self.colptr[j + 1]
        return self.row_idx[start:stop], self.values[start:stop]

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self._shape
        return f"CSCBlock({rows}x{cols}, nnz={self.nnz})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSCBlock):
            return NotImplemented
        return (
            self._shape == other._shape
            and bool(np.array_equal(self.values, other.values))
            and bool(np.array_equal(self.row_idx, other.row_idx))
            and bool(np.array_equal(self.colptr, other.colptr))
        )

    def __hash__(self) -> int:  # blocks are mutable; identity hash
        return id(self)
