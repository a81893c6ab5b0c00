"""Staged programs: the compile-time artefact of a ``while`` loop.

The paper's systems pre-unroll every loop because the plan must be fixed
before execution.  The frontend keeps that property *per segment* while
supporting data-dependent convergence loops: a ``while`` loop compiles to
a :class:`StagedProgram` --

* ``prologue``: everything before the loop, ending with the condition
  scalars (so the driver can decide whether the body runs at all);
* ``body``: the loop body compiled **once** as its own
  :class:`~repro.lang.program.MatrixProgram` whose inputs are the carried
  matrices, ending with the same condition scalars;
* ``condition``: which scalar(s) to compare, and how.

At run time :meth:`repro.session.DMacSession.run` executes the prologue,
then keeps appending body segments -- re-using the body's single plan,
wiring each segment's carried outputs into the next segment's loads --
until the condition scalar flips.  The plan is thereby extended
dynamically, and every segment passes through the full static stack
(lint, verification, peak-memory prediction, trace reconciliation)
exactly like a standalone program.

:func:`segments_of` is how the rest of the stack looks at *any* program:
a straight-line :class:`~repro.lang.program.MatrixProgram` is the view
with one segment and no loop.  It is the one place that asks which kind a
program is.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.errors import ProgramError
from repro.lang.program import MatrixProgram

#: One side of the convergence comparison: a scalar-output name shared by
#: the prologue and body programs, or a compile-time constant.
CondTerm = Union[str, float]

#: Comparison operators a ``while`` condition may use.
CONDITION_OPS = (">", ">=", "<", "<=")


@dataclasses.dataclass(frozen=True)
class ConditionSpec:
    """``lhs <op> rhs`` evaluated on the driver after every segment."""

    op: str
    lhs: CondTerm
    rhs: CondTerm

    def __post_init__(self) -> None:
        if self.op not in CONDITION_OPS:
            raise ProgramError(f"unknown while-condition operator {self.op!r}")

    def evaluate(self, scalars: dict[str, float]) -> bool:
        """Decide whether another segment runs, from a segment's scalars."""
        lhs = scalars[self.lhs] if isinstance(self.lhs, str) else self.lhs
        rhs = scalars[self.rhs] if isinstance(self.rhs, str) else self.rhs
        if self.op == ">":
            return lhs > rhs
        if self.op == ">=":
            return lhs >= rhs
        if self.op == "<":
            return lhs < rhs
        return lhs <= rhs

    def describe(self) -> str:
        lhs = self.lhs if isinstance(self.lhs, str) else repr(self.lhs)
        rhs = self.rhs if isinstance(self.rhs, str) else repr(self.rhs)
        return f"{lhs} {self.op} {rhs}"


@dataclasses.dataclass(frozen=True)
class CarriedVar:
    """How one body-program input is fed, segment after segment.

    ``name`` is both the user variable and the body program's load
    version.  The first body segment reads from ``first_version`` -- a
    runtime input array (``first_kind == "input"``) or a prologue output
    (``first_kind == "prologue"``).  If the body re-assigns the variable,
    ``loop_version`` names the body output every later segment reads;
    loop-invariant inputs keep their first source forever.
    """

    name: str
    first_kind: str  # "input" | "prologue"
    first_version: str
    loop_version: str | None = None


@dataclasses.dataclass(frozen=True)
class StagedOutput:
    """Where a user-facing output lives, depending on how far the run got.

    A variable assigned both before and inside the loop resolves to the
    last body segment when at least one ran, and to the prologue (or even
    directly to a bound input) when the condition was false immediately.
    """

    name: str
    prologue_kind: str | None  # "output" | None
    prologue_version: str | None
    body_version: str | None


@dataclasses.dataclass(frozen=True)
class StagedProgram:
    """A convergence-loop program: prologue + re-executable body segment."""

    name: str
    prologue: MatrixProgram
    body: MatrixProgram
    condition: ConditionSpec
    carried: tuple[CarriedVar, ...]
    matrix_outputs: tuple[StagedOutput, ...]
    scalar_outputs: tuple[StagedOutput, ...]
    max_segments: int = 200

    def segments(self) -> tuple[tuple[str, MatrixProgram], ...]:
        """The distinct programs a staged run plans, in plan order."""
        return (("prologue", self.prologue), ("body", self.body))

    def describe(self) -> str:
        lines = [
            f"# staged program {self.name}: while {self.condition.describe()}",
            "# prologue",
            self.prologue.describe(),
            "# body (per segment)",
            self.body.describe(),
        ]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class Segments:
    """Any program as the session runs it.

    ``programs`` are the labelled programs to plan, one plan each, in
    order; the first executes once, and the last re-executes for as long
    as ``loop.condition`` holds, fed through ``loop.carried``.  A
    straight-line program has one unlabelled segment and no ``loop``: its
    outputs keep their own names and nothing ever continues.
    """

    programs: tuple[tuple[str | None, MatrixProgram], ...]
    loop: StagedProgram | None = None


def segments_of(program: MatrixProgram | StagedProgram) -> Segments:
    """View a straight-line or a ``while``-loop program as segments."""
    if isinstance(program, StagedProgram):
        return Segments(program.segments(), program)
    return Segments(((None, program),))
