"""``@matrix_program``: decoration, signatures, and while-loop staging.

:class:`FrontendProgram` wraps a typed Python function.  Decoration parses
the source once (``ast``) and validates the signature; ``.compile()``
specialises it against compile-time bindings:

* no ``while`` loop -> one :class:`~repro.lang.program.MatrixProgram`,
  built by running the statement compiler over the whole body;
* one top-level ``while`` loop -> a
  :class:`~repro.frontend.staged.StagedProgram`: the statement compiler
  runs twice (prologue, body), the loop condition is lowered into *both*
  programs as the reserved scalars ``_while_lhs`` / ``_while_rhs``, and a
  carried-variable analysis (upward-exposed reads of the body + condition)
  decides which matrices each body segment loads from the previous one.

``Matrix`` parameters are loaded -- in signature order, before any body
statement -- into the (prologue) builder, so data stays a runtime binding
while shape/sparsity specialise the plan.  Scalar/int/bool parameters are
compile-time constants.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from typing import Any, Callable, Union, overload

from repro.frontend.compiler import (
    RESERVED_PREFIX,
    SourceMap,
    StatementCompiler,
    Value,
    compile_block,
    names_loaded,
    names_stored,
    upward_exposed_reads,
)
from repro.frontend.errors import FrontendError
from repro.frontend.staged import (
    CarriedVar,
    CondTerm,
    ConditionSpec,
    StagedOutput,
    StagedProgram,
)
from repro.frontend.types import Matrix, MatrixInput, Scalar
from repro.lang.expr import MatrixExpr, MatrixRefExpr, ScalarExpr, ScalarRefExpr
from repro.lang.program import MatrixProgram, ProgramBuilder

#: What ``compile`` may return: a straight-line program or a staged one.
CompiledProgram = Union[MatrixProgram, StagedProgram]

_PARAM_KINDS = {"matrix": "Matrix", "float": "Scalar/float", "int": "int", "bool": "bool"}

_COMPARE_OPS: dict[type[ast.cmpop], str] = {
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Lt: "<",
    ast.LtE: "<=",
}


@dataclasses.dataclass(frozen=True)
class Param:
    """One declared parameter of a ``@matrix_program`` function."""

    name: str
    kind: str  # "matrix" | "float" | "int" | "bool"
    default: float | int | bool | None = None
    has_default: bool = False


def _annotation_kind(annotation: object) -> str | None:
    if annotation is Matrix:
        return "matrix"
    if annotation is Scalar or annotation is float:
        return "float"
    if annotation is int:
        return "int"
    if annotation is bool:
        return "bool"
    if isinstance(annotation, str):
        name = annotation.rsplit(".", 1)[-1]
        return {
            "Matrix": "matrix",
            "Scalar": "float",
            "float": "float",
            "int": "int",
            "bool": "bool",
        }.get(name)
    return None


class FrontendProgram:
    """A Python function compiled on demand into plan IR."""

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        name: str | None = None,
        max_segments: int = 200,
    ) -> None:
        self.fn = fn
        self.name = name or fn.__name__
        self.max_segments = max_segments
        self._fndef, self._src = self._parse_source(fn)
        self.params = self._parse_signature(fn)

    # -- decoration-time parsing --------------------------------------------

    def _parse_source(
        self, fn: Callable[..., Any]
    ) -> tuple[ast.FunctionDef, SourceMap]:
        try:
            lines, start = inspect.getsourcelines(fn)
        except (OSError, TypeError) as error:
            raise FrontendError(
                "cannot read the function's source (interactively defined "
                "functions cannot be compiled)",
                function=self.name,
            ) from error
        filename = inspect.getsourcefile(fn)
        src = SourceMap(self.name, filename, start - 1)
        module = ast.parse(textwrap.dedent("".join(lines)))
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.AsyncFunctionDef):
                    raise src.error(node, "async functions cannot be compiled")
                return node, src
        raise FrontendError(
            "matrix_program must decorate a plain function", function=self.name
        )

    def _parse_signature(self, fn: Callable[..., Any]) -> tuple[Param, ...]:
        params: list[Param] = []
        line = self._src.line(self._fndef)
        for parameter in inspect.signature(fn).parameters.values():
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                raise FrontendError(
                    f"*{parameter.name} parameters are not supported; declare "
                    "each argument explicitly",
                    function=self.name,
                    filename=self._src.filename,
                    line=line,
                )
            if parameter.annotation is inspect.Parameter.empty:
                raise FrontendError(
                    f"untyped argument {parameter.name!r}: annotate it with "
                    "Matrix, Scalar, int, float or bool",
                    function=self.name,
                    filename=self._src.filename,
                    line=line,
                )
            kind = _annotation_kind(parameter.annotation)
            if kind is None:
                raise FrontendError(
                    f"argument {parameter.name!r} has unsupported annotation "
                    f"{parameter.annotation!r}; use Matrix, Scalar, int, "
                    "float or bool",
                    function=self.name,
                    filename=self._src.filename,
                    line=line,
                )
            if parameter.name.startswith(RESERVED_PREFIX):
                raise FrontendError(
                    f"names starting with {RESERVED_PREFIX!r} are reserved",
                    function=self.name,
                    filename=self._src.filename,
                    line=line,
                )
            has_default = parameter.default is not inspect.Parameter.empty
            if has_default:
                if kind == "matrix":
                    raise FrontendError(
                        f"Matrix argument {parameter.name!r} cannot have a "
                        "default; bind it with matrix_input(...) at compile "
                        "time",
                        function=self.name,
                        filename=self._src.filename,
                        line=line,
                    )
                self._check_number(parameter.name, kind, parameter.default, line)
            params.append(
                Param(
                    parameter.name,
                    kind,
                    parameter.default if has_default else None,
                    has_default,
                )
            )
        return tuple(params)

    def _check_number(
        self, name: str, kind: str, value: object, line: int | None
    ) -> float | int | bool:
        error = FrontendError(
            f"argument {name!r} is declared {_PARAM_KINDS[kind]} but got "
            f"{value!r}",
            function=self.name,
            filename=self._src.filename,
            line=line,
        )
        if kind == "bool":
            if not isinstance(value, bool):
                raise error
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error
        if kind == "int":
            if not isinstance(value, int):
                raise error
            return value
        return float(value)

    # -- the compile entry point --------------------------------------------

    def compile(self, **bindings: object) -> CompiledProgram:
        """Specialise against compile-time bindings and lower to plan IR."""
        valid = {param.name for param in self.params}
        for key in bindings:
            if key not in valid:
                raise FrontendError(
                    f"unknown compile-time argument {key!r}; this program "
                    f"takes: {', '.join(sorted(valid)) or '(none)'}",
                    function=self.name,
                )
        builder = ProgramBuilder()
        env: dict[str, Value] = {}
        for param in self.params:
            if param.name in bindings:
                value = bindings[param.name]
            elif param.has_default:
                value = param.default
            else:
                raise FrontendError(
                    f"missing compile-time binding for {param.name!r} "
                    f"({_PARAM_KINDS[param.kind]})",
                    function=self.name,
                )
            if param.kind == "matrix":
                if isinstance(value, tuple) and len(value) == 2:
                    value = MatrixInput(int(value[0]), int(value[1]))
                if not isinstance(value, MatrixInput):
                    raise FrontendError(
                        f"Matrix argument {param.name!r} must be bound with "
                        f"matrix_input(shape, sparsity=...), got {value!r}",
                        function=self.name,
                    )
                env[param.name] = builder.load(
                    param.name, value.shape, sparsity=value.sparsity
                )
            else:
                env[param.name] = self._check_number(
                    param.name, param.kind, value, None
                )

        body = list(self._fndef.body)
        while_indices = [
            index for index, stmt in enumerate(body) if isinstance(stmt, ast.While)
        ]
        if len(while_indices) > 1:
            raise self._src.error(
                body[while_indices[1]],
                "only one while loop per program is supported",
            )
        if not while_indices:
            return compile_block(body, self._src, builder, env)
        index = while_indices[0]
        return self._compile_staged(
            builder,
            env,
            body[:index],
            body[index],
            body[index + 1 :],
        )

    # -- staged (while-loop) compilation ------------------------------------

    def _compile_staged(
        self,
        builder: ProgramBuilder,
        env: dict[str, Value],
        pre: list[ast.stmt],
        loop: ast.stmt,
        post: list[ast.stmt],
    ) -> StagedProgram:
        assert isinstance(loop, ast.While)
        if loop.orelse:
            raise self._src.error(loop, "while/else is not supported")
        prologue_compiler = StatementCompiler(builder, env, self._src)
        prologue_compiler.exec_block(pre)
        condition = self._compile_condition(prologue_compiler, loop.test)

        body_reads = upward_exposed_reads(loop.body)
        body_assigned = set(names_stored(loop))
        condition_reads = names_loaded(loop.test)
        carried_names: list[str] = []
        for name in body_reads + [
            name for name in condition_reads if name not in body_reads
        ]:
            value = env.get(name)
            if not isinstance(value, MatrixRefExpr):
                continue
            if name in body_reads or name not in body_assigned:
                carried_names.append(name)

        body_builder = ProgramBuilder()
        body_env: dict[str, Value] = {}
        load_shapes: dict[str, tuple[int, int]] = {}
        for name in carried_names:
            ref = env[name]
            assert isinstance(ref, MatrixRefExpr)
            shape = builder.shape_of(ref.name)
            loop_carried = name in body_assigned
            sparsity = 1.0 if loop_carried else builder.declared_sparsity(ref.name)
            body_env[name] = body_builder.load(name, shape, sparsity=sparsity)
            load_shapes[name] = shape
        for name, value in env.items():
            if name not in body_env and isinstance(value, (bool, int, float)):
                body_env[name] = value
        outer_scalars = frozenset(
            name
            for name, value in env.items()
            if isinstance(value, ScalarRefExpr)
        )
        body_compiler = StatementCompiler(
            body_builder,
            body_env,
            self._src,
            forbid_outputs=True,
            outer_scalars=outer_scalars,
        )
        body_compiler.exec_block(loop.body)
        body_condition = self._compile_condition(body_compiler, loop.test)
        if body_condition != condition:  # pragma: no cover - same ast, same env
            raise FrontendError(
                "internal error: prologue and body lowered the while "
                "condition differently",
                function=self.name,
            )

        carried: list[CarriedVar] = []
        for name in carried_names:
            ref = env[name]
            assert isinstance(ref, MatrixRefExpr)
            loop_version: str | None = None
            if name in body_assigned:
                final = body_env.get(name)
                if not isinstance(final, MatrixRefExpr):
                    raise self._src.error(
                        loop,
                        f"loop-carried variable {name!r} must stay a matrix "
                        "across iterations",
                    )
                final_shape = body_builder.shape_of(final.name)
                if final_shape != load_shapes[name]:
                    raise self._src.error(
                        loop,
                        f"shape of loop-carried variable {name!r} changes "
                        f"across iterations: {load_shapes[name][0]}x"
                        f"{load_shapes[name][1]} -> {final_shape[0]}x"
                        f"{final_shape[1]}",
                    )
                body_builder.output(final)
                loop_version = final.name
            if builder.is_input(ref.name):
                first_kind = "input"
            else:
                first_kind = "prologue"
                builder.output(ref)
            carried.append(CarriedVar(name, first_kind, ref.name, loop_version))

        matrix_outputs, scalar_outputs = self._trailing_outputs(
            post, builder, env, body_builder, body_env, body_assigned
        )
        if not matrix_outputs and not scalar_outputs:
            raise FrontendError(
                "program declares no output(...) or output_scalar(...) "
                "after the while loop",
                function=self.name,
            )
        return StagedProgram(
            name=self.name,
            prologue=builder.build(),
            body=body_builder.build(),
            condition=condition,
            carried=tuple(carried),
            matrix_outputs=tuple(matrix_outputs),
            scalar_outputs=tuple(scalar_outputs),
            max_segments=self.max_segments,
        )

    def _compile_condition(
        self, compiler: StatementCompiler, test: ast.expr
    ) -> ConditionSpec:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            raise self._src.error(
                test,
                "a while condition must be a single comparison like "
                "`while norm2(delta) > eps`",
            )
        symbol = _COMPARE_OPS.get(type(test.ops[0]))
        if symbol is None:
            raise self._src.error(
                test,
                f"unsupported while comparison "
                f"{type(test.ops[0]).__name__}; use <, <=, > or >=",
            )
        lhs = self._condition_term(compiler, test.left, "_while_lhs")
        rhs = self._condition_term(compiler, test.comparators[0], "_while_rhs")
        if isinstance(lhs, float) and isinstance(rhs, float):
            raise self._src.error(
                test,
                "the while condition is constant at compile time; it must "
                "read at least one runtime scalar",
            )
        return ConditionSpec(symbol, lhs, rhs)

    def _condition_term(
        self, compiler: StatementCompiler, node: ast.expr, slot: str
    ) -> CondTerm:
        value = compiler.eval(node)
        if isinstance(value, bool):
            raise self._src.error(node, "while conditions compare numbers, not bools")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, MatrixExpr):
            raise self._src.error(
                node,
                "a while condition must compare scalars; reduce the matrix "
                "first, e.g. norm2(...), sum(...) or value(...)",
            )
        assert isinstance(value, ScalarExpr)

        def emit() -> str:
            ref = compiler.builder.scalar(slot, value)
            compiler.builder.scalar_output(ref)
            return ref.name

        return compiler._guard(node, emit)

    def _trailing_outputs(
        self,
        post: list[ast.stmt],
        builder: ProgramBuilder,
        env: dict[str, Value],
        body_builder: ProgramBuilder,
        body_env: dict[str, Value],
        body_assigned: set[str],
    ) -> tuple[list[StagedOutput], list[StagedOutput]]:
        matrix_outputs: list[StagedOutput] = []
        scalar_outputs: list[StagedOutput] = []
        for stmt in post:
            call = stmt.value if isinstance(stmt, ast.Expr) else None
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in ("output", "output_scalar")
            ):
                raise self._src.error(
                    stmt,
                    "statements after a while loop must be output(...) / "
                    "output_scalar(...) calls",
                )
            kind = call.func.id
            if (
                len(call.args) != 1
                or call.keywords
                or not isinstance(call.args[0], ast.Name)
            ):
                raise self._src.error(
                    call, f"{kind}() takes exactly one variable name"
                )
            name = call.args[0].id
            if kind == "output":
                matrix_outputs.append(
                    self._staged_matrix_output(
                        call, name, builder, env, body_builder, body_env,
                        body_assigned,
                    )
                )
            else:
                scalar_outputs.append(
                    self._staged_scalar_output(
                        call, name, builder, env, body_builder, body_env
                    )
                )
        return matrix_outputs, scalar_outputs

    def _staged_matrix_output(
        self,
        call: ast.Call,
        name: str,
        builder: ProgramBuilder,
        env: dict[str, Value],
        body_builder: ProgramBuilder,
        body_env: dict[str, Value],
        body_assigned: set[str],
    ) -> StagedOutput:
        body_version: str | None = None
        body_value = body_env.get(name)
        if name in body_assigned and isinstance(body_value, MatrixRefExpr):
            body_builder.output(body_value)
            body_version = body_value.name
        prologue_kind: str | None = None
        prologue_version: str | None = None
        value = env.get(name)
        if isinstance(value, MatrixRefExpr):
            # Materialised by the prologue even when it is a plain input, so
            # a zero-segment run still resolves every trailing output.
            prologue_version = value.name
            prologue_kind = "output"
            builder.output(value)
        if body_version is None and prologue_kind is None:
            raise self._src.error(
                call, f"output() needs a matrix, {name!r} is not one"
            )
        return StagedOutput(name, prologue_kind, prologue_version, body_version)

    def _staged_scalar_output(
        self,
        call: ast.Call,
        name: str,
        builder: ProgramBuilder,
        env: dict[str, Value],
        body_builder: ProgramBuilder,
        body_env: dict[str, Value],
    ) -> StagedOutput:
        body_version: str | None = None
        body_value = body_env.get(name)
        if isinstance(body_value, ScalarRefExpr):
            body_builder.scalar_output(body_value)
            body_version = body_value.name
        prologue_kind: str | None = None
        prologue_version: str | None = None
        value = env.get(name)
        if isinstance(value, ScalarRefExpr):
            builder.scalar_output(value)
            prologue_kind = "output"
            prologue_version = value.name
        if body_version is None and prologue_kind is None:
            raise self._src.error(
                call,
                f"output_scalar() needs a computed runtime scalar, "
                f"{name!r} is not one",
            )
        return StagedOutput(name, prologue_kind, prologue_version, body_version)

    # -- niceties ------------------------------------------------------------

    def __call__(self, *args: object, **kwargs: object) -> None:
        raise FrontendError(
            "matrix programs are compiled, not called: use "
            f"{self.name}.compile(...) and run the result through a session",
            function=self.name,
        )

    def __repr__(self) -> str:
        signature = ", ".join(
            f"{param.name}: {_PARAM_KINDS[param.kind]}" for param in self.params
        )
        return f"<matrix_program {self.name}({signature})>"


@overload
def matrix_program(fn: Callable[..., Any]) -> FrontendProgram: ...


@overload
def matrix_program(
    fn: None = None, *, name: str | None = None, max_segments: int = 200
) -> Callable[[Callable[..., Any]], FrontendProgram]: ...


def matrix_program(
    fn: Callable[..., Any] | None = None,
    *,
    name: str | None = None,
    max_segments: int = 200,
) -> FrontendProgram | Callable[[Callable[..., Any]], FrontendProgram]:
    """Declare a typed Python function as a compilable matrix program.

    Usable bare (``@matrix_program``) or with options
    (``@matrix_program(name="pagerank", max_segments=50)``).
    """

    def wrap(function: Callable[..., Any]) -> FrontendProgram:
        return FrontendProgram(function, name=name, max_segments=max_segments)

    return wrap if fn is None else wrap(fn)
