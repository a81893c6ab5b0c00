"""Candidate execution strategies per operator (paper Sections 3.1 and 4.1).

An execution strategy fixes the partition scheme each input operand must
arrive in and the scheme(s) the output can be produced in.  Matrix
multiplication has the three strategies of Figure 2:

* **RMM1**: ``A(b) @ B(c) -> AB(c)`` -- replicate the left operand,
* **RMM2**: ``A(r) @ B(b) -> AB(r)`` -- replicate the right operand,
* **CPMM**: ``A(c) @ B(r) -> AB(r|c)`` -- cross products plus a shuffled
  aggregation; the only strategy whose *output* event carries a cost, and
  the canonical producer of a multi-scheme output (Re-assignment target).

A fourth, **BMM** (``A(b) @ B(b) -> AB(b)``: every worker multiplies its
own replicas), is not a candidate of Algorithm 1.  For a product of two
replicas RMM1 needs ``B(c)``, which a replica yields for free, so Equation
1 never prices BMM strictly below RMM1; only the optimizer's
:mod:`repro.planopt.replicate` rewrite emits it, where the product's
output would otherwise be moved.

Cell-wise operators require scheme-aligned operands (``(r,r)``, ``(c,c)``
or ``(b,b)``); scalar operators and aggregations accept any single scheme.
Sources (load/random/full) have no inputs and a flexible Row-or-Column
output: the data can be laid out either way at creation for free, and the
Re-assignment heuristic exploits exactly that.
"""

from __future__ import annotations

import dataclasses

from repro.errors import PlanError
from repro.lang.program import (
    AggregateOp,
    CellwiseOp,
    FullOp,
    LoadOp,
    MatMulOp,
    OpNode,
    RandomOp,
    RowAggOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)
from repro.matrix.schemes import Scheme


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One way to execute an operator.

    Attributes:
        name: strategy identifier (``rmm1``/``rmm2``/``cpmm``/``cell-r``...).
        input_schemes: required scheme per matrix operand, in operand order.
        output_schemes: schemes the output can be produced in.  More than
            one entry means the output is *flexible* -- the Re-assignment
            heuristic may later rebind it (paper Section 4.2.2).
        shuffles_output: True only for CPMM, whose aggregation shuffles the
            full result (output-event cost ``N x |C|``, Section 4.1).
    """

    name: str
    input_schemes: tuple[Scheme, ...]
    output_schemes: tuple[Scheme, ...]
    shuffles_output: bool = False

    @property
    def primary_output(self) -> Scheme:
        return self.output_schemes[0]


RMM1 = Strategy("rmm1", (Scheme.BROADCAST, Scheme.COL), (Scheme.COL,))
RMM2 = Strategy("rmm2", (Scheme.ROW, Scheme.BROADCAST), (Scheme.ROW,))
CPMM = Strategy(
    "cpmm", (Scheme.COL, Scheme.ROW), (Scheme.ROW, Scheme.COL), shuffles_output=True
)

MATMUL_STRATEGIES = (RMM1, RMM2, CPMM)

#: Outside ``MATMUL_STRATEGIES``: emitted by the optimizer, never planned.
BMM = Strategy("bmm", (Scheme.BROADCAST, Scheme.BROADCAST), (Scheme.BROADCAST,))

CELLWISE_STRATEGIES = (
    Strategy("cell-r", (Scheme.ROW, Scheme.ROW), (Scheme.ROW,)),
    Strategy("cell-c", (Scheme.COL, Scheme.COL), (Scheme.COL,)),
    Strategy("cell-b", (Scheme.BROADCAST, Scheme.BROADCAST), (Scheme.BROADCAST,)),
)

SCALAR_STRATEGIES = (
    Strategy("scalar-r", (Scheme.ROW,), (Scheme.ROW,)),
    Strategy("scalar-c", (Scheme.COL,), (Scheme.COL,)),
    Strategy("scalar-b", (Scheme.BROADCAST,), (Scheme.BROADCAST,)),
)

AGGREGATE_STRATEGIES = (
    Strategy("agg-r", (Scheme.ROW,), ()),
    Strategy("agg-c", (Scheme.COL,), ()),
    Strategy("agg-b", (Scheme.BROADCAST,), ()),
)

#: Sources can be laid out Row or Column at creation, for free.
SOURCE_STRATEGY = Strategy("source", (), (Scheme.ROW, Scheme.COL))

#: Row/column aggregation: free when the reduced axis is worker-local
#: (Row input for row sums, Column for column sums, or a replica); a
#: scheme opposed to the reduced axis leaves per-worker partials that must
#: be shuffled and combined, like CPMM's output.
ROWSUM_STRATEGIES = (
    Strategy("rowsum-aligned", (Scheme.ROW,), (Scheme.ROW,)),
    Strategy("rowsum-b", (Scheme.BROADCAST,), (Scheme.BROADCAST,)),
    Strategy(
        "rowsum-opposed", (Scheme.COL,), (Scheme.ROW, Scheme.COL), shuffles_output=True
    ),
)
COLSUM_STRATEGIES = (
    Strategy("colsum-aligned", (Scheme.COL,), (Scheme.COL,)),
    Strategy("colsum-b", (Scheme.BROADCAST,), (Scheme.BROADCAST,)),
    Strategy(
        "colsum-opposed", (Scheme.ROW,), (Scheme.COL, Scheme.ROW), shuffles_output=True
    ),
)


def candidate_strategies(op: OpNode) -> tuple[Strategy, ...]:
    """The candidate strategy set ``S_i`` for an operator (Section 4.1)."""
    if isinstance(op, MatMulOp):
        return MATMUL_STRATEGIES
    if isinstance(op, CellwiseOp):
        return CELLWISE_STRATEGIES
    if isinstance(op, (ScalarMatrixOp, UnaryMatrixOp)):
        return SCALAR_STRATEGIES
    if isinstance(op, AggregateOp):
        return AGGREGATE_STRATEGIES
    if isinstance(op, RowAggOp):
        return ROWSUM_STRATEGIES if op.kind == "rowsum" else COLSUM_STRATEGIES
    if isinstance(op, (LoadOp, RandomOp, FullOp)):
        return (SOURCE_STRATEGY,)
    raise PlanError(f"no strategies for operator {type(op).__name__}")
