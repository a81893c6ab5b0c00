"""A small textual matrix language (DML-style), lowered by the frontend.

SystemML -- the paper's baseline -- exposes "an R-like high-level language"
so users "escape from hand-coding MapReduce programs"; DMac embeds the same
surface in Scala.  This module is the textual counterpart: a script
language with R's operators (``%*%`` for matrix multiplication, ``t(X)``
for transpose).  It parses only; the parser emits Python ``ast`` that
:func:`~repro.frontend.compiler.compile_block` lowers like a
``@matrix_program`` body (docs/frontend.md, "DML is a second surface of
this compiler", has the mapping), and every diagnostic is a
:class:`~repro.frontend.errors.FrontendError` naming the script and line.

Example::

    V = load(1000, 500, sparsity=0.01)
    W = random(1000, 10)
    H = random(10, 500)
    for (i in 1:10) {
        H = H * (t(W) %*% V) / (t(W) %*% W %*% H)
        W = W * (V %*% t(H)) / (W %*% H %*% t(H))
    }
    output(W)
    output(H)

Statements: assignments (matrix- or scalar-valued, decided by the
expression's type), ``for (i in a:b) { ... }`` loops (unrolled, matching
how the planner sees cross-iteration dependencies), ``output(X)`` and
``outputScalar(s)``.  Functions: ``load(rows, cols, sparsity=...)``,
``random(rows, cols, seed=...)``, ``full(rows, cols, value)``, ``t``,
``sum``, ``sqsum``, ``value``, ``norm2``, ``rowSums``, ``colSums``, and the
element-wise unaries (``exp``, ``log``, ``sqrt``, ``abs``, ``sign``,
``sigmoid``, ``reciprocal``).  Comments run from ``#`` to end of line.

Operator precedence follows R: ``%*%`` binds tighter than ``*``/``/``,
which bind tighter than ``+``/``-``; unary minus tighter than all.
"""

from __future__ import annotations

import ast
import re
from typing import NamedTuple, TypeVar

from repro.frontend.compiler import SourceMap, compile_block
from repro.lang.program import MatrixProgram

#: DML function names the frontend spells differently.
_RENAMED = {"rowSums": "row_sums", "colSums": "col_sums", "outputScalar": "output_scalar"}

#: Matrix sources: each call becomes a statement of its own.
_SOURCES = ("load", "random", "full")

#: Binary operators by precedence level, loosest first.
_LEVELS = (("+", "-"), ("*", "/"), ("%*%",))
_BIN_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div, "%*%": ast.MatMult}

_Node = TypeVar("_Node", bound=ast.AST)

_TOKEN_SPEC = [
    ("NUMBER", r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"),
    ("MATMUL", r"%\*%"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("OP", r"[+\-*/=(){},:]"),
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("COMMENT", r"#[^\n]*"),
    ("MISMATCH", r"."),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


class _Token(NamedTuple):
    kind: str  # NUMBER | MATMUL | IDENT | OP | EOF
    text: str
    lineno: int  # named as on an ast node, so SourceMap.error can point at it


def _tokenize(source: str, src: SourceMap) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "NEWLINE":
            line += 1
        elif kind == "MISMATCH":
            raise src.error(_Token(kind, text, line), f"unexpected character {text!r}")
        elif kind not in ("SKIP", "COMMENT"):
            tokens.append(_Token(kind, text, line))
    tokens.append(_Token("EOF", "", line))
    return tokens


def _located(node: _Node, token: _Token) -> _Node:
    node.lineno = token.lineno
    return node


def _name(text: str, token: _Token, ctx: ast.expr_context | None = None) -> ast.Name:
    return _located(ast.Name(text, ctx or ast.Load()), token)


class _Parser:
    """Recursive-descent parser emitting the script as Python ``ast``."""

    def __init__(self, source: str, src: SourceMap) -> None:
        self._src = src
        self._tokens = _tokenize(source, src)
        self._pos = 0
        #: source statements waiting for the assignment that reads them
        self._hoisted: list[ast.stmt] = []

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise self._src.error(token, f"expected {text!r}, got {token.text!r}")
        return token

    def _at(self, text: str) -> bool:
        return self._peek().text == text

    # -- statements ----------------------------------------------------------

    def parse(self) -> list[ast.stmt]:
        body: list[ast.stmt] = []
        while self._peek().kind != "EOF":
            body.extend(self._statement())
        return body

    def _statement(self) -> list[ast.stmt]:
        token = self._peek()
        if token.kind != "IDENT":
            raise self._src.error(token, f"expected a statement, got {token.text!r}")
        if token.text == "for":
            return [self._for_loop()]
        if token.text in ("output", "outputScalar"):
            return [self._output()]
        return self._assignment()

    def _assignment(self) -> list[ast.stmt]:
        name = self._next()
        self._expect("=")
        value = self._expression()
        if isinstance(value, ast.Name):
            # `X = +Y`: a DML alias records X in program.bindings, a Python `x = y` does not.
            value = _located(ast.UnaryOp(ast.UAdd(), value), name)
        statement = _located(ast.Assign([_name(name.text, name, ast.Store())], value), name)
        hoisted, self._hoisted = self._hoisted, []
        return [*hoisted, statement]

    def _for_loop(self) -> ast.stmt:
        for_token = self._expect("for")
        self._expect("(")
        loop_var = self._next()
        if loop_var.kind != "IDENT":
            raise self._src.error(loop_var, "expected a loop variable")
        self._expect("in")
        start = self._integer()
        self._expect(":")
        stop = self._integer()
        self._expect(")")
        self._expect("{")
        if stop < start:
            raise self._src.error(for_token, f"empty loop range {start}:{stop}")
        body: list[ast.stmt] = []
        while not self._at("}"):
            if self._peek().kind == "EOF":
                raise self._src.error(for_token, "unclosed loop body")
            body.extend(self._statement())
        self._expect("}")
        bounds = [_located(ast.Constant(bound), for_token) for bound in (start, stop + 1)]
        iterator = _located(ast.Call(_name("range", for_token), bounds, []), for_token)
        target = _name(loop_var.text, loop_var, ast.Store())
        return _located(ast.For(target, iterator, body, []), for_token)

    def _output(self) -> ast.stmt:
        keyword = self._next()
        self._expect("(")
        target = self._next()
        if target.kind != "IDENT":
            raise self._src.error(target, "output() takes a variable name")
        self._expect(")")
        func = _name(_RENAMED.get(keyword.text, keyword.text), keyword)
        call = _located(ast.Call(func, [_name(target.text, target)], []), target)
        return _located(ast.Expr(call), keyword)

    def _integer(self) -> int:
        token = self._next()
        if token.kind != "NUMBER" or not token.text.isdigit():
            raise self._src.error(token, f"expected an integer, got {token.text!r}")
        return int(token.text)

    # -- expressions (R precedence: %*% > * / > + -) ----------------------------

    def _expression(self, level: int = 0) -> ast.expr:
        if level == len(_LEVELS):
            return self._unary()
        left = self._expression(level + 1)
        while self._peek().text in _LEVELS[level]:
            token = self._next()
            right = self._expression(level + 1)
            left = _located(ast.BinOp(left, _BIN_OPS[token.text](), right), token)
        return left

    def _unary(self) -> ast.expr:
        if self._at("-"):
            token = self._next()
            return _located(ast.UnaryOp(ast.USub(), self._unary()), token)
        return self._primary()

    def _primary(self) -> ast.expr:
        token = self._next()
        if token.kind == "NUMBER":
            return _located(ast.Constant(float(token.text)), token)
        if token.text == "(":
            inner = self._expression()
            self._expect(")")
            return inner
        if token.kind == "IDENT":
            return self._call(token) if self._at("(") else _name(token.text, token)
        raise self._src.error(token, f"unexpected token {token.text!r}")

    def _call(self, name: _Token) -> ast.expr:
        self._expect("(")
        args: list[ast.expr] = []
        keywords: list[ast.keyword] = []
        more = not self._at(")")
        while more:
            if self._peek().kind == "IDENT" and self._tokens[self._pos + 1].text == "=":
                key = self._next().text
                self._expect("=")
                keywords.append(ast.keyword(key, self._expression()))
            else:
                args.append(self._expression())
            more = self._at(",")
            if more:
                self._next()
        self._expect(")")
        func = _name(_RENAMED.get(name.text, name.text), name)
        call = _located(ast.Call(func, args, keywords), name)
        if name.text not in _SOURCES:
            return call
        # A source names its matrix after where the call ends in the script.
        fresh = f"_{name.text}{name.lineno}_{self._pos}"
        self._hoisted.append(_located(ast.Assign([_name(fresh, name, ast.Store())], call), name))
        return _name(fresh, name)


def parse_program(source: str, filename: str | None = None) -> MatrixProgram:
    """Compile a DML-style script into a :class:`MatrixProgram`.

    ``filename`` only labels diagnostics.  Load order defines the binding
    order of ``load()`` inputs (``program.input_sparsity``);
    :func:`load_names` maps them back to script variables.
    """
    src = SourceMap("dml", filename, 0)
    return compile_block(_Parser(source, src).parse(), src)


def load_names(program: MatrixProgram) -> dict[str, str]:
    """Map script variable names to the internal names of their loads.

    A script line ``V = load(...)`` aliases the script variable to the
    generated load; this inverts `program.bindings` for exactly those.
    """
    internal_loads = set(program.input_sparsity)
    return {
        user: version
        for user, version in program.bindings.items()
        if version in internal_loads and not user.startswith("_")
    }
