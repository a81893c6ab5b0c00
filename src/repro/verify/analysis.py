"""Concrete dataflow analyses over the plan IR.

Transfer functions are *derived from the operator registry*
(:mod:`repro.runtime.registry`): the shape analysis calls each spec's own
``shape_rule``, and the NNZ analysis dispatches on ``spec.name`` with a
conservative default for any spec the table below does not know.  Register
a new operator and every analysis here immediately handles it -- precisely
for the known families, soundly (full range / TOP) for the rest.

Four analyses ship:

* **shape** (forward, flat lattice): ``(rows, cols)`` per matrix instance.
* **layouts** (forward, powerset): which partition schemes each logical
  ``(name, transposed)`` version is materialised under.
* **NNZ** (forward, intervals with widening): non-zero count ranges per
  *logical base name*.  Summarising SSA versions into one cell makes
  loop-carried updates (PageRank's rank, GNMF's factors) feed back into
  themselves -- a genuine cycle the widening operator resolves in a
  bounded number of passes.
* **liveness** (backward, powerset): instances still needed after each
  step; one reverse sweep suffices on the acyclic per-instance plan.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.plan import MatrixInstance, Plan, Step
from repro.errors import PlanError
from repro.lang.program import MatrixProgram
from repro.matrix.schemes import Scheme
from repro.runtime.registry import OPERATORS
from repro.verify.engine import FixpointResult, solve
from repro.verify.lattice import (
    TOP,
    FlatLattice,
    Interval,
    IntervalLattice,
    PowersetLattice,
)

Shape = Tuple[int, int]
#: Version key for the layout analysis: (logical name, transposed).
VersionKey = Tuple[str, bool]


def declared_shape(program: MatrixProgram, instance: MatrixInstance) -> Optional[Shape]:
    """The shape the program declares for an instance (transpose-adjusted);
    ``None`` for a name it does not know."""
    if instance.name not in program.dims:
        return None
    return program.dims_of(instance)


def base_name(name: str) -> str:
    """Strip the SSA version suffix: ``"W@2" -> "W"``."""
    return name.split("@", 1)[0]


def _spec_name(step: Step) -> Optional[str]:
    spec = OPERATORS.get(type(step))
    return spec.name if spec is not None else None


# ---------------------------------------------------------------------------
# Shape analysis (forward, flat).
# ---------------------------------------------------------------------------


def solve_shapes(plan: Plan) -> FixpointResult[MatrixInstance, object]:
    """Instance -> ``(rows, cols)`` | TOP, via the registry's shape rules."""

    def transfer(
        index: int, step: Step, env: Mapping[MatrixInstance, object]
    ) -> Mapping[MatrixInstance, object]:
        output = step.output_instance()
        if output is None:
            return {}
        spec = OPERATORS.get(type(step))
        if spec is None:  # unregistered operator: soundly unknown
            return {output: TOP}
        # Shape rules index into pairs: feed them only real facts, and only
        # of what the step reads (a copy of the whole env is O(steps^2)).
        concrete: Dict[MatrixInstance, Shape] = {
            i: env[i] for i in step.inputs() if isinstance(env.get(i), tuple)
        }
        try:
            shape = spec.shape_rule(step, concrete)
        except PlanError:
            return {output: TOP}
        return {} if shape is None else {output: shape}

    def reads(index: int, step: Step) -> Iterable[MatrixInstance]:
        return step.inputs()

    return solve(plan.steps, FlatLattice(), transfer, reads)


# ---------------------------------------------------------------------------
# Layout analysis (forward, powerset).
# ---------------------------------------------------------------------------


def solve_layouts(plan: Plan) -> FixpointResult[VersionKey, FrozenSet[Scheme]]:
    """``(name, transposed)`` -> the set of schemes it is materialised under."""

    def transfer(
        index: int, step: Step, env: Mapping[VersionKey, FrozenSet[Scheme]]
    ) -> Mapping[VersionKey, FrozenSet[Scheme]]:
        output = step.output_instance()
        if output is None:
            return {}
        return {(output.name, output.transposed): frozenset({output.scheme})}

    def reads(index: int, step: Step) -> Iterable[VersionKey]:
        return ()  # definitions only; one pass over the steps suffices

    return solve(plan.steps, PowersetLattice(), transfer, reads)


# ---------------------------------------------------------------------------
# NNZ analysis (forward, intervals, widening).
# ---------------------------------------------------------------------------

#: spec.name -> interval transfer.  Each rule receives the step, a lookup
#: of its inputs' intervals (by base name), and the output's cell count.
NnzRule = Callable[[Step, Callable[[str], Interval], int], Interval]


def _hi(interval: Interval, cells: int) -> int:
    return cells if interval.hi is None else min(interval.hi, cells)


def _nnz_source(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    op = getattr(step, "op")
    sparsity = getattr(op, "sparsity", None)
    if sparsity is not None:  # load: declared density is exact
        nnz = min(cells, int(round(cells * float(sparsity))))
        return Interval(nnz, nnz)
    value = getattr(op, "value", None)
    if value == 0:  # full(0)
        return Interval(0, 0)
    return Interval(cells, cells)  # random / nonzero constant: dense


def _nnz_extended(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    source = getattr(step, "source")
    return of(base_name(source.name)).clamp(0, cells)


def _nnz_matmul(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    return Interval(0, cells)


def _nnz_cellwise(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    left = of(base_name(getattr(step, "left").name))
    right = of(base_name(getattr(step, "right").name))
    op = getattr(step, "op").op
    if op == "multiply":  # zeros annihilate
        return Interval(0, min(_hi(left, cells), _hi(right, cells)))
    if op == "divide":  # result support is within the numerator's
        return Interval(0, _hi(left, cells))
    return Interval(0, min(cells, _hi(left, cells) + _hi(right, cells)))


def _nnz_scalar_matrix(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    source = of(base_name(getattr(step, "source").name))
    op = getattr(step, "op")
    scalar = op.scalar
    if op.op in ("multiply", "divide") and (
        not isinstance(scalar, (int, float)) or scalar != 0
    ):
        return Interval(0, _hi(source, cells))  # support preserved or shrunk
    return Interval(0, cells)  # add/sub (or zero scalar) may densify


def _nnz_unary(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    source = of(base_name(getattr(step, "source").name))
    func = getattr(step, "op").func
    if func in ("abs", "sign", "sqrt", "square", "relu"):  # f(0) == 0
        return Interval(0, _hi(source, cells))
    return Interval(0, cells)  # exp, sigmoid, ... map zeros elsewhere


def _nnz_row_agg(step: Step, of: Callable[[str], Interval], cells: int) -> Interval:
    return Interval(0, cells)


NNZ_RULES: Dict[str, NnzRule] = {
    "source": _nnz_source,
    "extended": _nnz_extended,
    "matmul": _nnz_matmul,
    "cellwise": _nnz_cellwise,
    "scalar-matrix": _nnz_scalar_matrix,
    "unary": _nnz_unary,
    "row-agg": _nnz_row_agg,
}


def solve_nnz(plan: Plan, *, widen_after: int = 3) -> FixpointResult[str, Optional[Interval]]:
    """Base name -> NNZ interval, widened over loop-carried versions."""
    cells_of: Dict[str, int] = {}
    for name, (rows, cols) in plan.program.dims.items():
        key = base_name(name)
        cells_of[key] = max(cells_of.get(key, 0), rows * cols)

    def cells(key: str) -> int:
        return cells_of.get(key, 0)

    def transfer(
        index: int, step: Step, env: Mapping[str, Optional[Interval]]
    ) -> Mapping[str, Optional[Interval]]:
        output = step.output_instance()
        if output is None:
            return {}
        key = base_name(output.name)
        out_cells = cells(key)

        def of(name: str) -> Interval:
            found = env.get(name)
            return found if found is not None else Interval(0, cells(name))

        spec_name = _spec_name(step)
        rule = NNZ_RULES.get(spec_name) if spec_name is not None else None
        if rule is None:  # unregistered operator: full structural range
            return {key: Interval(0, out_cells)}
        return {key: rule(step, of, out_cells).clamp(0, out_cells)}

    def reads(index: int, step: Step) -> Iterable[str]:
        return [base_name(i.name) for i in step.inputs()]

    return solve(plan.steps, IntervalLattice(), transfer, reads, widen_after=widen_after)


# ---------------------------------------------------------------------------
# Liveness (backward, powerset).
# ---------------------------------------------------------------------------


def solve_liveness(plan: Plan) -> Tuple[FrozenSet[MatrixInstance], ...]:
    """``live_after[i]``: instances some step after ``i`` (or a program
    output materialisation) still reads.  One reverse sweep -- the
    per-instance dependency graph is acyclic by construction."""
    live: set[MatrixInstance] = set(plan.outputs.values())
    live_after: list[FrozenSet[MatrixInstance]] = [frozenset()] * len(plan.steps)
    for index in range(len(plan.steps) - 1, -1, -1):
        step = plan.steps[index]
        live_after[index] = frozenset(live)
        output = step.output_instance()
        if output is not None:
            live.discard(output)
        live.update(step.inputs())
    return tuple(live_after)


# ---------------------------------------------------------------------------
# The aggregate.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PlanAnalysis:
    """Stable facts for one plan, as computed by the fixpoint engine."""

    shapes: Mapping[MatrixInstance, object]  # (rows, cols) | TOP
    layouts: Mapping[VersionKey, FrozenSet[Scheme]]
    nnz: Mapping[str, Optional[Interval]]
    live_after: Tuple[FrozenSet[MatrixInstance], ...]
    iterations: int  # total engine pops across the fixpoint analyses
    widened: FrozenSet[str]  # base names whose NNZ needed widening

    def shape_of(self, instance: MatrixInstance) -> Optional[Shape]:
        fact = self.shapes.get(instance)
        return fact if isinstance(fact, tuple) else None

    def nnz_of(self, name: str) -> Optional[Interval]:
        return self.nnz.get(base_name(name))


def analyse_plan(plan: Plan, *, widen_after: int = 3) -> PlanAnalysis:
    """Run all four analyses to fixpoint and bundle the stable facts."""
    shapes = solve_shapes(plan)
    layouts = solve_layouts(plan)
    nnz = solve_nnz(plan, widen_after=widen_after)
    live_after = solve_liveness(plan)
    return PlanAnalysis(
        shapes=shapes.values,
        layouts=layouts.values,
        nnz=nnz.values,
        live_after=live_after,
        iterations=shapes.iterations + layouts.iterations + nnz.iterations,
        widened=nnz.widened,
    )
