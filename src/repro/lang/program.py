"""Matrix programs: the operator sequence the planner consumes.

A :class:`ProgramBuilder` turns lazy expressions into a flat, SSA-like
sequence of operators (paper Section 4: "DMac decomposes the matrix program
into a sequence of matrix operators").  Three decomposition rules from the
paper are implemented here:

* **Transposes are not operators.**  ``W.T`` marks the *operand reference*
  (``Operand.transposed``), so the planner can satisfy it through Transpose
  / Transpose-Partition / Extract-Transpose dependencies.
* **Binary decomposition.**  Every compound expression becomes a chain of
  binary operators over fresh temporaries.
* **Multiplications first.**  When several operators of one statement are
  ready simultaneously, multiplications are emitted ahead of the others
  (Section 4.2.3) so Pull-Up Broadcast gets the chance to fire.

Loops are unrolled by construction: re-assigning a name creates a new
version (``W``, ``W@2``, ...), which is precisely what lets the planner see
cross-iteration dependencies -- the heart of the paper's optimisation.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.errors import ProgramError
from repro.lang.expr import (
    AggExpr,
    CellwiseExpr,
    MatMulExpr,
    MatrixExpr,
    MatrixRefExpr,
    RowAggExpr,
    ScalarBinaryExpr,
    ScalarConst,
    ScalarExpr,
    ScalarMatrixExpr,
    ScalarRefExpr,
    ScalarUnaryExpr,
    TransposeExpr,
    UnaryExpr,
)

#: A scalar slot in an operator: either a literal or a driver-scalar name.
ScalarTerm = Union[float, str]


@dataclasses.dataclass(frozen=True)
class Operand:
    """A reference to a matrix version, possibly transposed on access."""

    name: str
    transposed: bool = False

    def __str__(self) -> str:
        return f"{self.name}^T" if self.transposed else self.name


# ---------------------------------------------------------------------------
# Operator nodes
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class OpNode:
    """Base operator: produces the matrix (or scalar) named ``output``."""

    output: str

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return ()

    def scalar_inputs(self) -> tuple[str, ...]:
        return ()


@dataclasses.dataclass(frozen=True)
class LoadOp(OpNode):
    """Bind an external input matrix (data supplied at execution time)."""

    rows: int = 0
    cols: int = 0
    sparsity: float = 1.0


@dataclasses.dataclass(frozen=True)
class RandomOp(OpNode):
    """Generate a dense uniform(0,1) matrix (the paper's RandomMatrix)."""

    rows: int = 0
    cols: int = 0
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class FullOp(OpNode):
    """Generate a constant-filled matrix."""

    rows: int = 0
    cols: int = 0
    value: float = 0.0


@dataclasses.dataclass(frozen=True)
class MatMulOp(OpNode):
    """Matrix multiplication ``output = left @ right``."""

    left: Operand = Operand("?")
    right: Operand = Operand("?")

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return (self.left, self.right)


@dataclasses.dataclass(frozen=True)
class CellwiseOp(OpNode):
    """Cell-wise binary operator over equally-shaped matrices."""

    op: str = "add"
    left: Operand = Operand("?")
    right: Operand = Operand("?")

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return (self.left, self.right)


@dataclasses.dataclass(frozen=True)
class ScalarMatrixOp(OpNode):
    """Element-wise ``output = operand <op> scalar``."""

    op: str = "multiply"
    operand: Operand = Operand("?")
    scalar: ScalarTerm = 1.0

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return (self.operand,)

    def scalar_inputs(self) -> tuple[str, ...]:
        return (self.scalar,) if isinstance(self.scalar, str) else ()


@dataclasses.dataclass(frozen=True)
class UnaryMatrixOp(OpNode):
    """Element-wise unary function: ``output = func(operand)``."""

    func: str = "abs"
    operand: Operand = Operand("?")

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return (self.operand,)


@dataclasses.dataclass(frozen=True)
class RowAggOp(OpNode):
    """Row or column sums: ``output = rowsum(operand)`` (matrix-valued)."""

    kind: str = "rowsum"  # "rowsum" -> M x 1, "colsum" -> 1 x N
    operand: Operand = Operand("?")

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return (self.operand,)


@dataclasses.dataclass(frozen=True)
class AggregateOp(OpNode):
    """Aggregate a matrix into the driver scalar named ``output``."""

    kind: str = "sum"
    operand: Operand = Operand("?")

    def matrix_inputs(self) -> tuple[Operand, ...]:
        return (self.operand,)


@dataclasses.dataclass(frozen=True)
class ScalarComputeOp(OpNode):
    """Driver-side scalar arithmetic over earlier scalars and constants."""

    expr: ScalarExpr = ScalarConst(0.0)

    def scalar_inputs(self) -> tuple[str, ...]:
        return tuple(_scalar_refs(self.expr))


def _scalar_refs(expr: ScalarExpr) -> list[str]:
    if isinstance(expr, ScalarRefExpr):
        return [expr.name]
    if isinstance(expr, ScalarBinaryExpr):
        return _scalar_refs(expr.left) + _scalar_refs(expr.right)
    if isinstance(expr, ScalarUnaryExpr):
        return _scalar_refs(expr.child)
    return []


def op_input_names(op: OpNode) -> list[str]:
    """All matrix and scalar names an operator reads."""
    return [operand.name for operand in op.matrix_inputs()] + list(op.scalar_inputs())


# ---------------------------------------------------------------------------
# The program container
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MatrixProgram:
    """A decomposed matrix program, ready for planning."""

    ops: tuple[OpNode, ...]
    dims: dict[str, tuple[int, int]]  # every matrix version -> (rows, cols)
    input_sparsity: dict[str, float]  # LoadOp outputs -> declared sparsity
    outputs: tuple[str, ...]  # matrix versions to materialise
    scalar_outputs: tuple[str, ...]  # driver scalars to report
    bindings: dict[str, str]  # user variable -> final version name

    def dims_of(self, operand: Operand) -> tuple[int, int]:
        rows, cols = self.dims[operand.name]
        return (cols, rows) if operand.transposed else (rows, cols)

    def describe(self) -> str:
        """A human-readable operator listing (for plan inspection tools)."""
        lines = []
        for op in self.ops:
            if isinstance(op, MatMulOp):
                lines.append(f"{op.output} = {op.left} @ {op.right}")
            elif isinstance(op, CellwiseOp):
                symbol = {"add": "+", "subtract": "-", "multiply": "*", "divide": "/"}[op.op]
                lines.append(f"{op.output} = {op.left} {symbol} {op.right}")
            elif isinstance(op, ScalarMatrixOp):
                symbol = {"add": "+", "subtract": "-", "multiply": "*", "divide": "/"}[op.op]
                lines.append(f"{op.output} = {op.operand} {symbol} {op.scalar}")
            elif isinstance(op, UnaryMatrixOp):
                lines.append(f"{op.output} = {op.func}({op.operand})")
            elif isinstance(op, RowAggOp):
                lines.append(f"{op.output} = {op.kind}({op.operand})")
            elif isinstance(op, AggregateOp):
                lines.append(f"{op.output} = {op.kind}({op.operand})")
            elif isinstance(op, LoadOp):
                lines.append(f"{op.output} = load({op.rows}x{op.cols}, s={op.sparsity})")
            elif isinstance(op, RandomOp):
                lines.append(f"{op.output} = random({op.rows}x{op.cols})")
            elif isinstance(op, FullOp):
                lines.append(f"{op.output} = full({op.rows}x{op.cols}, {op.value})")
            elif isinstance(op, ScalarComputeOp):
                lines.append(f"{op.output} = scalar(...)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


class ProgramBuilder:
    """Incrementally builds a :class:`MatrixProgram` from expressions."""

    def __init__(self) -> None:
        self._ops: list[OpNode] = []
        self._dims: dict[str, tuple[int, int]] = {}
        self._input_sparsity: dict[str, float] = {}
        self._version_count: dict[str, int] = {}
        self._current: dict[str, str] = {}
        self._scalar_names: set[str] = set()
        self._temp_count = 0
        self._outputs: list[str] = []
        self._scalar_outputs: list[str] = []

    # -- sources -----------------------------------------------------------

    def load(self, name: str, shape: tuple[int, int], sparsity: float = 1.0) -> MatrixRefExpr:
        """Declare an input matrix; the data is bound at execution time.

        ``sparsity`` is the user/pre-computed non-zero fraction the paper's
        worst-case estimator starts from (Section 5.1).
        """
        if not 0.0 <= sparsity <= 1.0:
            raise ProgramError(f"sparsity must lie in [0, 1], got {sparsity}")
        version = self._new_version(name)
        self._set_dims(version, shape)
        self._input_sparsity[version] = sparsity
        self._ops.append(LoadOp(version, shape[0], shape[1], sparsity))
        return MatrixRefExpr(version)

    def random(self, name: str, shape: tuple[int, int], seed: int = 0) -> MatrixRefExpr:
        """Declare a dense random matrix (the paper's ``RandomMatrix``)."""
        version = self._new_version(name)
        self._set_dims(version, shape)
        self._ops.append(RandomOp(version, shape[0], shape[1], seed))
        return MatrixRefExpr(version)

    def full(self, name: str, shape: tuple[int, int], value: float) -> MatrixRefExpr:
        """Declare a constant-filled matrix."""
        version = self._new_version(name)
        self._set_dims(version, shape)
        self._ops.append(FullOp(version, shape[0], shape[1], value))
        return MatrixRefExpr(version)

    # -- statements ----------------------------------------------------------

    def assign(self, name: str, expr: MatrixExpr) -> MatrixRefExpr:
        """``name = expr``: flatten, reorder multiplications first, append."""
        statement_ops: list[OpNode] = []
        operand = self._flatten(expr, statement_ops)
        version = self._bind(name, operand, statement_ops)
        self._ops.extend(_multiplications_first(statement_ops))
        return MatrixRefExpr(version)

    def scalar(self, name: str, expr: ScalarExpr | float) -> ScalarRefExpr:
        """``name = scalar expr``: aggregates become AggregateOps, the rest a
        driver ScalarComputeOp."""
        statement_ops: list[OpNode] = []
        scalar_expr = expr if isinstance(expr, ScalarExpr) else ScalarConst(float(expr))
        normalized = self._normalize_scalar(scalar_expr, statement_ops)
        version = self._new_version(name)
        self._scalar_names.add(version)
        if isinstance(normalized, ScalarRefExpr) and statement_ops:
            last = statement_ops[-1]
            if last.output == normalized.name and isinstance(last, AggregateOp):
                statement_ops[-1] = dataclasses.replace(last, output=version)
                self._scalar_names.discard(normalized.name)
                self._ops.extend(_multiplications_first(statement_ops))
                return ScalarRefExpr(version)
        statement_ops.append(ScalarComputeOp(version, normalized))
        self._ops.extend(_multiplications_first(statement_ops))
        return ScalarRefExpr(version)

    def output(self, ref: MatrixRefExpr | str) -> None:
        """Mark a matrix version for materialisation at the end of the run."""
        name = ref.name if isinstance(ref, MatrixRefExpr) else self._current.get(ref, ref)
        if name not in self._dims:
            raise ProgramError(f"unknown matrix {name!r}")
        if name not in self._outputs:
            self._outputs.append(name)

    def scalar_output(self, ref: ScalarRefExpr | str) -> None:
        """Mark a driver scalar for reporting at the end of the run."""
        name = ref.name if isinstance(ref, ScalarRefExpr) else self._current.get(ref, ref)
        if name not in self._scalar_names:
            raise ProgramError(f"unknown scalar {name!r}")
        if name not in self._scalar_outputs:
            self._scalar_outputs.append(name)

    def build(self) -> MatrixProgram:
        """Freeze the program."""
        return MatrixProgram(
            ops=tuple(self._ops),
            dims=dict(self._dims),
            input_sparsity=dict(self._input_sparsity),
            outputs=tuple(self._outputs),
            scalar_outputs=tuple(self._scalar_outputs),
            bindings=dict(self._current),
        )

    # -- compile-time queries (used by the ast frontend) ----------------------

    def shape_of(self, name: str) -> tuple[int, int]:
        """Compile-time shape of a user name or version."""
        version = self._current.get(name, name)
        if version not in self._dims:
            raise ProgramError(f"unknown matrix {name!r}")
        return self._dims[version]

    def is_input(self, version: str) -> bool:
        """Whether a version is a runtime-bound input (a LoadOp)."""
        return version in self._input_sparsity

    def declared_sparsity(self, version: str) -> float:
        """The declared input sparsity of a version (1.0 for non-inputs)."""
        return self._input_sparsity.get(version, 1.0)

    # -- internal: naming -----------------------------------------------------

    def _new_version(self, user_name: str) -> str:
        if "@" in user_name:
            raise ProgramError(f"'@' is reserved for version suffixes: {user_name!r}")
        count = self._version_count.get(user_name, 0) + 1
        self._version_count[user_name] = count
        version = user_name if count == 1 else f"{user_name}@{count}"
        self._current[user_name] = version
        return version

    def _new_temp(self) -> str:
        self._temp_count += 1
        return f"_t{self._temp_count}"

    def _set_dims(self, name: str, shape: tuple[int, int]) -> None:
        rows, cols = shape
        if rows < 1 or cols < 1:
            raise ProgramError(f"matrix dimensions must be >= 1, got {shape}")
        self._dims[name] = (int(rows), int(cols))

    def _operand_dims(self, operand: Operand) -> tuple[int, int]:
        rows, cols = self._dims[operand.name]
        return (cols, rows) if operand.transposed else (rows, cols)

    def _bind(self, name: str, operand: Operand, statement_ops: list[OpNode]) -> str:
        """Attach the statement's result to a fresh version of ``name``."""
        produced_here = {op.output for op in statement_ops}
        if operand.name in produced_here and not operand.transposed:
            # Rename the producing temp to the user-visible version.
            version = self._new_version(name)
            self._dims[version] = self._dims.pop(operand.name)
            for index, op in enumerate(statement_ops):
                if op.output == operand.name:
                    statement_ops[index] = dataclasses.replace(op, output=version)
            return version
        if operand.transposed:
            # `X = Y.T` as a statement: realise via an identity scalar op so
            # the planner sees a Transpose dependency on the operand.
            version = self._new_version(name)
            self._set_dims(version, self._operand_dims(operand))
            statement_ops.append(ScalarMatrixOp(version, "multiply", operand, 1.0))
            return version
        # Plain alias: `X = Y`.
        self._current[name] = operand.name
        return operand.name

    # -- internal: flattening ----------------------------------------------------

    def _flatten(self, expr: MatrixExpr, out: list[OpNode]) -> Operand:
        if isinstance(expr, MatrixRefExpr):
            if expr.name not in self._dims:
                raise ProgramError(f"unknown matrix {expr.name!r}")
            return Operand(expr.name)
        if isinstance(expr, TransposeExpr):
            child = self._flatten(expr.child, out)
            return Operand(child.name, not child.transposed)
        if isinstance(expr, MatMulExpr):
            left = self._flatten(expr.left, out)
            right = self._flatten(expr.right, out)
            (lr, lc), (rr, rc) = self._operand_dims(left), self._operand_dims(right)
            if lc != rr:
                raise ProgramError(
                    f"matmul inner dimensions differ: {lr}x{lc} @ {rr}x{rc}"
                )
            temp = self._new_temp()
            self._set_dims(temp, (lr, rc))
            out.append(MatMulOp(temp, left, right))
            return Operand(temp)
        if isinstance(expr, CellwiseExpr):
            left = self._flatten(expr.left, out)
            right = self._flatten(expr.right, out)
            ldims, rdims = self._operand_dims(left), self._operand_dims(right)
            if ldims != rdims:
                raise ProgramError(
                    f"cell-wise {expr.op} requires equal shapes, got {ldims} and {rdims}"
                )
            temp = self._new_temp()
            self._set_dims(temp, ldims)
            out.append(CellwiseOp(temp, expr.op, left, right))
            return Operand(temp)
        if isinstance(expr, UnaryExpr):
            child = self._flatten(expr.child, out)
            temp = self._new_temp()
            self._set_dims(temp, self._operand_dims(child))
            out.append(UnaryMatrixOp(temp, expr.func, child))
            return Operand(temp)
        if isinstance(expr, RowAggExpr):
            child = self._flatten(expr.child, out)
            rows, cols = self._operand_dims(child)
            temp = self._new_temp()
            shape = (rows, 1) if expr.kind == "rowsum" else (1, cols)
            self._set_dims(temp, shape)
            out.append(RowAggOp(temp, expr.kind, child))
            return Operand(temp)
        if isinstance(expr, ScalarMatrixExpr):
            scalar = self._flatten_scalar(expr.scalar, out)
            child = self._flatten(expr.child, out)
            temp = self._new_temp()
            self._set_dims(temp, self._operand_dims(child))
            out.append(ScalarMatrixOp(temp, expr.op, child, scalar))
            return Operand(temp)
        raise ProgramError(f"cannot flatten expression of type {type(expr).__name__}")

    def _flatten_scalar(self, expr: ScalarExpr, out: list[OpNode]) -> ScalarTerm:
        normalized = self._normalize_scalar(expr, out)
        if isinstance(normalized, ScalarConst):
            return normalized.value
        if isinstance(normalized, ScalarRefExpr):
            return normalized.name
        temp = self._new_temp()
        self._scalar_names.add(temp)
        out.append(ScalarComputeOp(temp, normalized))
        return temp

    def _normalize_scalar(self, expr: ScalarExpr, out: list[OpNode]) -> ScalarExpr:
        """Replace aggregates with references to emitted AggregateOps and
        constant-fold pure-literal subtrees."""
        if isinstance(expr, (ScalarConst, ScalarRefExpr)):
            if isinstance(expr, ScalarRefExpr) and expr.name not in self._scalar_names:
                raise ProgramError(f"unknown scalar {expr.name!r}")
            return expr
        if isinstance(expr, AggExpr):
            operand = self._flatten(expr.child, out)
            if expr.kind == "value" and self._operand_dims(operand) != (1, 1):
                raise ProgramError(
                    f".value requires a 1x1 matrix, got {self._operand_dims(operand)}"
                )
            name = self._new_temp()
            self._scalar_names.add(name)
            out.append(AggregateOp(name, expr.kind, operand))
            return ScalarRefExpr(name)
        if isinstance(expr, ScalarBinaryExpr):
            left = self._normalize_scalar(expr.left, out)
            right = self._normalize_scalar(expr.right, out)
            if isinstance(left, ScalarConst) and isinstance(right, ScalarConst):
                return ScalarConst(_fold_binary(expr.op, left.value, right.value))
            return ScalarBinaryExpr(expr.op, left, right)
        if isinstance(expr, ScalarUnaryExpr):
            child = self._normalize_scalar(expr.child, out)
            if isinstance(child, ScalarConst):
                return ScalarConst(_fold_unary(expr.op, child.value))
            return ScalarUnaryExpr(expr.op, child)
        raise ProgramError(f"cannot flatten scalar expression {type(expr).__name__}")


def _fold_binary(op: str, left: float, right: float) -> float:
    if op == "add":
        return left + right
    if op == "subtract":
        return left - right
    if op == "multiply":
        return left * right
    if right == 0:
        raise ProgramError("scalar division by zero")
    return left / right


def _fold_unary(op: str, value: float) -> float:
    if op == "negate":
        return -value
    if value < 0:
        raise ProgramError(f"sqrt of negative constant {value}")
    return value**0.5


def _multiplications_first(statement_ops: list[OpNode]) -> list[OpNode]:
    """Stable topological reorder of one statement's operators that emits
    ready multiplications before other ready operators (Section 4.2.3)."""
    produced = {op.output: index for index, op in enumerate(statement_ops)}
    dependencies = [
        {produced[name] for name in op_input_names(op) if name in produced}
        for op in statement_ops
    ]
    emitted: list[OpNode] = []
    done: set[int] = set()
    remaining = set(range(len(statement_ops)))
    while remaining:
        ready = [index for index in remaining if dependencies[index] <= done]
        if not ready:  # pragma: no cover - flattening emits in dependency order
            raise ProgramError("cycle in statement operators")
        ready.sort(
            key=lambda index: (
                0 if isinstance(statement_ops[index], MatMulOp) else 1,
                index,
            )
        )
        chosen = ready[0]
        emitted.append(statement_ops[chosen])
        done.add(chosen)
        remaining.discard(chosen)
    return emitted
