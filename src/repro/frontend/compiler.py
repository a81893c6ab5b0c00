"""The ``ast``-walking compiler: typed Python functions -> plan IR.

This is the numpywren-style frontend the ROADMAP calls for: a decorated,
annotated Python function is parsed with :mod:`ast` and *lowered* -- never
executed -- into the same :class:`~repro.lang.program.MatrixProgram` IR
the hand-built ``ProgramBuilder`` applications produce, via the very same
builder.  The compiler is a small abstract interpreter over four value
kinds:

* ``MatrixRefExpr`` -- a named distributed matrix version (builder-owned);
* ``ScalarRefExpr`` -- a named runtime driver scalar;
* ``int`` / ``float`` / ``bool`` -- compile-time constants (parameters,
  loop counters, folded arithmetic).

Statements translate one-to-one onto builder calls: ``X = <matrix expr>``
becomes ``builder.assign``, ``s = <scalar expr>`` becomes
``builder.scalar``, ``X = random(...)`` becomes ``builder.random`` and so
on -- which is what makes frontend-compiled programs *byte-identical* to
the legacy hand-built ones (same version names, same temp numbering, same
operator order).  ``for i in range(...)`` unrolls, ``if`` on compile-time
values selects a branch during lowering, and every diagnostic carries the
absolute source line of the offending statement.

``while`` loops are handled one level up (:mod:`repro.frontend.program`),
which runs this statement compiler once for the prologue and once for the
loop body to produce a :class:`~repro.frontend.staged.StagedProgram`.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, TypeVar, Union

from repro.errors import ProgramError
from repro.frontend.errors import FrontendError
from repro.lang.expr import (
    MatrixExpr,
    MatrixRefExpr,
    ScalarExpr,
    ScalarRefExpr,
    TransposeExpr,
    scalar_arithmetic,
)
from repro.lang.program import MatrixProgram, ProgramBuilder

#: Everything an expression can evaluate to during lowering.
Value = Union[MatrixExpr, ScalarExpr, int, float, bool]

_T = TypeVar("_T")

#: Matrix source functions: only legal as the entire right-hand side of an
#: assignment, because they need the target name for the builder.
SOURCE_FUNCS = ("load", "random", "full", "zeros", "ones")

#: Zero-argument matrix methods usable in method form (``X.sigmoid()``).
MATRIX_METHODS = (
    "sum", "sq_sum", "norm2", "value", "row_sums", "col_sums",
    "exp", "log", "sqrt", "abs", "sign", "sigmoid", "reciprocal",
)

#: Element-wise unary functions usable in call form (``sigmoid(X)``).
UNARY_FUNCS = ("exp", "log", "sign", "sigmoid", "reciprocal")

#: Variable names the staged compiler reserves for condition scalars.
RESERVED_PREFIX = "_while"

_BIN_OPS: dict[type[ast.operator], str] = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.MatMult: "@",
}

#: The scalar operator each number-only binary symbol folds to.
_FOLDED_OPS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}

_STATIC_ONLY_BIN_OPS: dict[type[ast.operator], Callable[[float, float], float]] = {
    ast.Pow: lambda a, b: a**b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
}


@dataclasses.dataclass(frozen=True)
class SourceMap:
    """Maps relative ast line numbers back to absolute source lines."""

    function: str
    filename: str | None
    offset: int  # absolute line of snippet line 1, minus one

    def line(self, node: ast.AST) -> int | None:
        lineno = getattr(node, "lineno", None)
        return None if lineno is None else lineno + self.offset

    def error(self, node: ast.AST | None, message: str) -> FrontendError:
        return FrontendError(
            message,
            function=self.function,
            filename=self.filename,
            line=None if node is None else self.line(node),
        )


def names_loaded(node: ast.AST) -> list[str]:
    """Names read (Load context) anywhere under ``node``, in source order."""
    out: list[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in out:
                out.append(child.id)
    return out


def names_stored(node: ast.AST) -> list[str]:
    """Names assigned (Store context) anywhere under ``node``."""
    out: list[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            if child.id not in out:
                out.append(child.id)
    return out


def upward_exposed_reads(stmts: list[ast.stmt]) -> list[str]:
    """Names a statement block reads before (possibly) assigning them.

    Straight-line statements are tracked exactly; ``for``/``if`` subtrees
    are handled conservatively (all their reads count, their writes only
    take effect afterwards), which can only over-approximate the carry
    set, never miss a needed input.
    """
    exposed: list[str] = []
    assigned: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            for name in names_loaded(stmt.value):
                if name not in assigned and name not in exposed:
                    exposed.append(name)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
        else:
            for name in names_loaded(stmt):
                if name not in assigned and name not in exposed:
                    exposed.append(name)
            assigned.update(names_stored(stmt))
    return exposed


def compile_block(
    stmts: list[ast.stmt],
    src: SourceMap,
    builder: ProgramBuilder | None = None,
    env: dict[str, Value] | None = None,
) -> MatrixProgram:
    """Lower a statement list with no ``while`` into one program.

    The one straight-line entry point: a ``@matrix_program`` body (onto a
    builder that already holds its ``Matrix`` parameters) and a DML script
    (:mod:`repro.lang.dml`, onto a fresh one) both compile here.
    """
    builder = ProgramBuilder() if builder is None else builder
    StatementCompiler(builder, {} if env is None else env, src).exec_block(stmts)
    program = builder.build()
    if not program.outputs and not program.scalar_outputs:
        raise src.error(None, "program declares no output(...) or output_scalar(...)")
    return program


class StatementCompiler:
    """Lowers one straight-line region of the function onto one builder."""

    def __init__(
        self,
        builder: ProgramBuilder,
        env: dict[str, Value],
        src: SourceMap,
        *,
        forbid_outputs: bool = False,
        outer_scalars: frozenset[str] = frozenset(),
    ) -> None:
        self.builder = builder
        self.env = env
        self.src = src
        self.forbid_outputs = forbid_outputs
        #: Runtime scalars of an enclosing (prologue) region: naming one
        #: inside a loop body gets a dedicated diagnostic.
        self.outer_scalars = outer_scalars

    # -- statements ----------------------------------------------------------

    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._exec_ann_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            raise self.src.error(
                stmt,
                "augmented assignment is not supported; write `x = x + ...`",
            )
        elif isinstance(stmt, ast.Expr):
            self._exec_expr_stmt(stmt)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, ast.While):
            raise self.src.error(
                stmt,
                "while loops are only supported at the top level of a "
                "matrix program (one convergence loop per program)",
            )
        elif isinstance(stmt, ast.Return):
            raise self.src.error(
                stmt,
                "return is not supported; declare results with output(...) "
                "or output_scalar(...)",
            )
        elif isinstance(stmt, ast.Pass):
            return
        else:
            raise self.src.error(
                stmt,
                f"unsupported syntax: {type(stmt).__name__} statements "
                "cannot be lowered to a matrix program",
            )

    def _bind_target(self, stmt: ast.stmt, target: ast.expr) -> str:
        if not isinstance(target, ast.Name):
            raise self.src.error(
                stmt,
                "only simple `name = ...` assignments are supported "
                "(no tuples, subscripts or attributes)",
            )
        name = target.id
        if name.startswith(RESERVED_PREFIX):
            raise self.src.error(
                stmt,
                f"names starting with {RESERVED_PREFIX!r} are reserved "
                "for compiled while-conditions",
            )
        return name

    def _exec_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            raise self.src.error(
                stmt, "chained assignment (`a = b = ...`) is not supported"
            )
        self._assign(stmt, stmt.targets[0], stmt.value)

    def _exec_ann_assign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is None:
            raise self.src.error(
                stmt, "annotation-only statements are not supported"
            )
        self._assign(stmt, stmt.target, stmt.value)

    def _assign(self, stmt: ast.stmt, target: ast.expr, rhs: ast.expr) -> None:
        name = self._bind_target(stmt, target)
        # Matrix sources need the target name, so they are recognised as a
        # statement form rather than an expression.
        if isinstance(rhs, ast.Call) and isinstance(rhs.func, ast.Name) \
                and rhs.func.id in SOURCE_FUNCS and rhs.func.id not in self.env:
            self.env[name] = self._call_source(name, rhs)
            return
        if isinstance(rhs, ast.Name):
            # Pure alias: no operator is emitted, exactly like binding a
            # builder handle to a second Python variable.
            self.env[name] = self._lookup(rhs)
            return
        value = self.eval(rhs)
        if isinstance(value, (bool, int, float)):
            self.env[name] = value
        elif isinstance(value, MatrixExpr):
            self.env[name] = self._guard(stmt, lambda: self.builder.assign(name, value))
        elif isinstance(value, ScalarExpr):
            self.env[name] = self._guard(stmt, lambda: self.builder.scalar(name, value))
        else:  # pragma: no cover - eval returns only the kinds above
            raise self.src.error(stmt, f"cannot assign value of type {type(value).__name__}")

    def _exec_expr_stmt(self, stmt: ast.Expr) -> None:
        value = stmt.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return  # docstring
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in ("output", "output_scalar"):
                self._exec_output(value)
                return
        raise self.src.error(
            stmt,
            "expression statements have no effect in a matrix program "
            "(only output(...) / output_scalar(...) calls are allowed)",
        )

    def _exec_output(self, call: ast.Call) -> None:
        assert isinstance(call.func, ast.Name)
        kind = call.func.id
        if self.forbid_outputs:
            raise self.src.error(
                call,
                f"{kind}() inside a while body is not supported; declare "
                "outputs after the loop",
            )
        if len(call.args) != 1 or call.keywords or not isinstance(call.args[0], ast.Name):
            raise self.src.error(call, f"{kind}() takes exactly one variable name")
        value = self._lookup(call.args[0])
        if kind == "output":
            if not isinstance(value, MatrixRefExpr):
                raise self.src.error(
                    call, f"output() needs a matrix, {call.args[0].id!r} is not one"
                )
            self.builder.output(value)
        else:
            if not isinstance(value, ScalarRefExpr):
                raise self.src.error(
                    call,
                    f"output_scalar() needs a computed runtime scalar, "
                    f"{call.args[0].id!r} is not one",
                )
            self.builder.scalar_output(value)

    def _exec_for(self, stmt: ast.For) -> None:
        if stmt.orelse:
            raise self.src.error(stmt, "for/else is not supported")
        if not isinstance(stmt.target, ast.Name):
            raise self.src.error(stmt, "the loop variable must be a single name")
        call = stmt.iter
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "range"
        ):
            raise self.src.error(
                stmt,
                "for loops must iterate over range(...) with compile-time "
                "bounds (loops are unrolled during compilation)",
            )
        bounds = [self._static_int(arg, "range() bound") for arg in call.args]
        if call.keywords or not 1 <= len(bounds) <= 3:
            raise self.src.error(stmt, "range() takes 1 to 3 positional integers")
        loop_var = stmt.target.id
        for iteration in range(*bounds):
            self.env[loop_var] = iteration
            self.exec_block(stmt.body)

    def _exec_if(self, stmt: ast.If) -> None:
        if self.eval_static_bool(stmt.test):
            self.exec_block(stmt.body)
        else:
            self.exec_block(stmt.orelse)

    # -- expressions ---------------------------------------------------------

    def eval(self, node: ast.expr) -> Value:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or isinstance(node.value, (int, float)):
                return node.value
            raise self.src.error(
                node, f"unsupported literal {node.value!r} (numbers only)"
            )
        if isinstance(node, ast.Name):
            return self._lookup(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unary(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Compare):
            raise self.src.error(
                node,
                "comparisons are only valid as if/while conditions, not as values",
            )
        raise self.src.error(
            node,
            f"unsupported syntax: {type(node).__name__} expressions cannot "
            "be lowered to a matrix program",
        )

    def _lookup(self, node: ast.Name) -> Value:
        name = node.id
        if name in self.env:
            return self.env[name]
        if name in self.outer_scalars:
            raise self.src.error(
                node,
                f"scalar {name!r} is computed before the while loop and "
                "cannot be read inside it (loop-carried scalars are not "
                "supported; recompute it in the body)",
            )
        raise self.src.error(node, f"unknown variable {name!r}")

    def _eval_binop(self, node: ast.BinOp) -> Value:
        static_op = _STATIC_ONLY_BIN_OPS.get(type(node.op))
        symbol = _BIN_OPS.get(type(node.op))
        if symbol is None and static_op is None:
            raise self.src.error(
                node, f"unsupported operator {type(node.op).__name__}"
            )
        left = self.eval(node.left)
        right = self.eval(node.right)
        if isinstance(left, (bool, int, float)) and isinstance(right, (bool, int, float)):
            try:
                if static_op is not None:
                    return static_op(left, right)
                return self._fold_numbers(symbol or "", left, right)
            except ZeroDivisionError:
                raise self.src.error(node, "division by zero constant") from None
        if static_op is not None:
            raise self.src.error(
                node,
                f"{type(node.op).__name__} is only supported between "
                "compile-time numbers",
            )
        return self._combine(node, symbol or "", left, right)

    @staticmethod
    def _fold_numbers(symbol: str, left: float, right: float) -> float:
        if symbol not in _FOLDED_OPS:
            raise ProgramError("@ requires matrix operands, got numbers")
        return scalar_arithmetic(_FOLDED_OPS[symbol], left, right)

    def _combine(self, node: ast.BinOp, symbol: str, left: Value, right: Value) -> Value:
        if symbol == "@":
            if not (isinstance(left, MatrixExpr) and isinstance(right, MatrixExpr)):
                raise self.src.error(node, "@ requires matrix operands on both sides")
            return self._guard(node, lambda: left @ right)

        def apply() -> Value:
            if symbol == "+":
                result = left + right  # type: ignore[operator]
            elif symbol == "-":
                result = left - right  # type: ignore[operator]
            elif symbol == "*":
                result = left * right  # type: ignore[operator]
            else:
                result = left / right  # type: ignore[operator]
            if result is NotImplemented:
                raise ProgramError(
                    f"cannot apply {symbol!r} to {type(left).__name__} "
                    f"and {type(right).__name__}"
                )
            return result  # type: ignore[return-value]

        return self._guard(node, apply)

    def _eval_unary(self, node: ast.UnaryOp) -> Value:
        if isinstance(node.op, ast.USub):
            value = self.eval(node.operand)
            if isinstance(value, (bool, int, float)):
                return -value
            return self._guard(node, lambda: -value)  # type: ignore[operator, arg-type]
        if isinstance(node.op, ast.UAdd):
            return self.eval(node.operand)
        raise self.src.error(
            node, f"unsupported unary operator {type(node.op).__name__}"
        )

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        value = self.eval(node.value)
        attr = node.attr
        if isinstance(value, MatrixExpr):
            if attr == "T":
                return value.T
            if attr in ("rows", "cols", "shape"):
                shape = self._shape_of(node, value)
                if attr == "rows":
                    return shape[0]
                if attr == "cols":
                    return shape[1]
                raise self.src.error(
                    node, "use .rows / .cols (`.shape` is not a scalar)"
                )
            raise self.src.error(
                node,
                f"unknown matrix attribute {attr!r} (did you mean a method "
                f"call like .{attr}()?)" if attr in MATRIX_METHODS
                else f"unknown matrix attribute {attr!r}",
            )
        raise self.src.error(
            node, f"{type(value).__name__} values have no attribute {attr!r}"
        )

    def _shape_of(self, node: ast.AST, value: MatrixExpr) -> tuple[int, int]:
        if isinstance(value, MatrixRefExpr):
            ref_name = value.name
            return self._guard(node, lambda: self.builder.shape_of(ref_name))
        if isinstance(value, TransposeExpr) and isinstance(value.child, MatrixRefExpr):
            inner_name = value.child.name
            shape = self._guard(node, lambda: self.builder.shape_of(inner_name))
            return (shape[1], shape[0])
        raise self.src.error(
            node,
            ".rows/.cols are only available on named matrices, not on "
            "compound expressions; assign the expression to a variable first",
        )

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> Value:
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._eval_method(node, func)
        if not isinstance(func, ast.Name):
            raise self.src.error(node, "only simple function calls are supported")
        name = func.id
        if name in self.env:
            raise self.src.error(
                node, f"{name!r} is a program variable, not a function"
            )
        if name in SOURCE_FUNCS:
            raise self.src.error(
                node,
                f"{name}() creates a named matrix and is only allowed as "
                "the whole right-hand side of an assignment "
                f"(`X = {name}(...)`)",
            )
        if name in ("output", "output_scalar"):
            raise self.src.error(
                node, f"{name}() is a statement, not an expression"
            )
        args = [self.eval(arg) for arg in node.args]
        if node.keywords:
            raise self.src.error(node, f"{name}() takes no keyword arguments")
        return self._call_builtin(node, name, args)

    def _eval_method(self, node: ast.Call, func: ast.Attribute) -> Value:
        base = self.eval(func.value)
        attr = func.attr
        if node.args or node.keywords:
            raise self.src.error(node, f".{attr}() takes no arguments")
        if isinstance(base, MatrixExpr) and attr in MATRIX_METHODS:
            method: Callable[[], Value] = getattr(base, attr)
            return self._guard(node, method)
        if isinstance(base, ScalarExpr) and attr == "sqrt":
            return self._guard(node, base.sqrt)
        raise self.src.error(
            node, f"unknown method .{attr}() on {type(base).__name__}"
        )

    def _one_matrix(self, node: ast.Call, name: str, args: list[Value]) -> MatrixExpr:
        if len(args) != 1 or not isinstance(args[0], MatrixExpr):
            raise self.src.error(node, f"{name}() takes exactly one matrix argument")
        return args[0]

    def _call_builtin(self, node: ast.Call, name: str, args: list[Value]) -> Value:
        if name == "sum":
            return self._one_matrix(node, name, args).sum()
        if name == "sqsum":
            return self._one_matrix(node, name, args).sq_sum()
        if name == "norm2":
            return self._one_matrix(node, name, args).norm2()
        if name == "value":
            return self._one_matrix(node, name, args).value()
        if name == "row_sums":
            return self._one_matrix(node, name, args).row_sums()
        if name == "col_sums":
            return self._one_matrix(node, name, args).col_sums()
        if name == "t":
            return self._one_matrix(node, name, args).T
        if name in UNARY_FUNCS:
            return self._guard(
                node, getattr(self._one_matrix(node, name, args), name)
            )
        if name == "sqrt":
            if len(args) == 1 and isinstance(args[0], MatrixExpr):
                return args[0].sqrt()
            if len(args) == 1 and isinstance(args[0], ScalarExpr):
                return args[0].sqrt()
            if len(args) == 1 and isinstance(args[0], (int, float)):
                try:
                    return scalar_arithmetic("sqrt", args[0])
                except ValueError as error:
                    raise self.src.error(node, str(error)) from None
            raise self.src.error(node, "sqrt() takes one matrix, scalar or number")
        if name == "abs":
            if len(args) == 1 and isinstance(args[0], MatrixExpr):
                return args[0].abs()
            if len(args) == 1 and isinstance(args[0], (int, float)):
                return abs(args[0])
            raise self.src.error(node, "abs() takes one matrix or number")
        raise self.src.error(node, f"unknown function {name!r}")

    def _call_source(self, target: str, node: ast.Call) -> MatrixRefExpr:
        assert isinstance(node.func, ast.Name)
        name = node.func.id
        args = [self.eval(arg) for arg in node.args]
        kwargs: dict[str, Value] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                raise self.src.error(node, f"{name}() does not accept **kwargs")
            kwargs[keyword.arg] = self.eval(keyword.value)
        if len(args) < 2:
            raise self.src.error(
                node, f"{name}(rows, cols, ...) needs two dimension arguments"
            )
        rows = self._as_int(node, args[0], f"{name}() rows")
        cols = self._as_int(node, args[1], f"{name}() cols")
        shape = (rows, cols)

        def number(value: Value, what: str) -> float:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            raise self.src.error(node, f"{name}() {what} must be a compile-time number")

        if name == "load":
            sparsity = number(kwargs.pop("sparsity", 1.0), "sparsity")
            self._check_source_arity(node, name, args, 2, kwargs)
            return self._guard(
                node, lambda: self.builder.load(target, shape, sparsity=sparsity)
            )
        if name == "random":
            seed = self._as_int(node, kwargs.pop("seed", 0), f"{name}() seed")
            self._check_source_arity(node, name, args, 2, kwargs)
            return self._guard(
                node, lambda: self.builder.random(target, shape, seed=seed)
            )
        if name == "full":
            if len(args) > 2:
                fill = number(args[2], "value")
            else:
                fill = number(kwargs.pop("value", 0.0), "value")
            self._check_source_arity(node, name, args, 3, kwargs)
            return self._guard(
                node, lambda: self.builder.full(target, shape, fill)
            )
        # zeros / ones: sugar over full.
        fill = 0.0 if name == "zeros" else 1.0
        self._check_source_arity(node, name, args, 2, kwargs)
        return self._guard(node, lambda: self.builder.full(target, shape, fill))

    def _check_source_arity(
        self,
        node: ast.Call,
        name: str,
        args: list[Value],
        max_args: int,
        leftover_kwargs: dict[str, Value],
    ) -> None:
        if len(args) > max_args or leftover_kwargs:
            extras = ", ".join(sorted(leftover_kwargs))
            raise self.src.error(
                node,
                f"unexpected arguments to {name}()"
                + (f": {extras}" if extras else ""),
            )

    # -- compile-time conditions ---------------------------------------------

    def eval_static_bool(self, node: ast.expr) -> bool:
        """An ``if`` condition: must be decidable during compilation."""
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise self.src.error(node, "chained comparisons are not supported")
            left = self._static_number(node.left, "if condition")
            right = self._static_number(node.comparators[0], "if condition")
            op = node.ops[0]
            if isinstance(op, ast.Lt):
                return left < right
            if isinstance(op, ast.LtE):
                return left <= right
            if isinstance(op, ast.Gt):
                return left > right
            if isinstance(op, ast.GtE):
                return left >= right
            if isinstance(op, ast.Eq):
                return left == right
            if isinstance(op, ast.NotEq):
                return left != right
            raise self.src.error(node, f"unsupported comparison {type(op).__name__}")
        if isinstance(node, ast.BoolOp):
            values = [self.eval_static_bool(child) for child in node.values]
            return all(values) if isinstance(node.op, ast.And) else any(values)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return not self.eval_static_bool(node.operand)
        value = self.eval(node)
        if isinstance(value, (bool, int, float)):
            return bool(value)
        raise self.src.error(
            node,
            "if conditions must be decidable at compile time (a runtime "
            "scalar or matrix cannot steer unrolling); use a while loop "
            "for data-dependent control flow",
        )

    def _static_number(self, node: ast.expr, what: str) -> float:
        value = self.eval(node)
        if isinstance(value, (bool, int, float)):
            return float(value)
        kind = "matrix" if isinstance(value, MatrixExpr) else "runtime scalar"
        raise self.src.error(
            node, f"{what} must be a compile-time number, got a {kind}"
        )

    def _static_int(self, node: ast.expr, what: str) -> int:
        value = self.eval(node)
        return self._as_int(node, value, what)

    def _as_int(self, node: ast.AST, value: Value, what: str) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.src.error(node, f"{what} must be a compile-time integer")
        if isinstance(value, float):
            if not value.is_integer():
                raise self.src.error(node, f"{what} must be an integer, got {value}")
            return int(value)
        return value

    # -- error plumbing ------------------------------------------------------

    def _guard(self, node: ast.AST, fn: Callable[[], _T]) -> _T:
        """Run a builder/expression operation, re-raising any ProgramError
        as a FrontendError pointing at the user's source line."""
        try:
            return fn()
        except FrontendError:
            raise
        except ProgramError as error:
            raise self.src.error(node, str(error)) from error
