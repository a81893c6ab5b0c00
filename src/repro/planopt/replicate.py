"""Replicated products: a product of two replicas is computed replicated.

Algorithm 1 never multiplies two Broadcast operands: for ``A(b) @ B(b)``
RMM1 takes ``B(c)``, which a replica yields for free, and returns a
Column-partitioned product.  When that product is then *moved* -- a
``broadcast`` because a later product wants it replicated (GNMF's ``W (H
H^T)``), or a ``partition`` to the other 1-D layout -- the plan ships
``N x |AB|`` (or ``|AB|``) bytes to rebuild what every worker could have
computed itself.  This pass rewrites such a product:

* its operands already exist as replicas, or as the free ``transpose`` of
  one, and
* its output is read by a communicating ``broadcast`` or ``partition``,

into ``AB(b) <- bmm(A(b), B(b))``: the broadcast goes, a partition becomes
a free ``extract``, and so does any other reader of the old 1-D product.
Dead-step elimination then removes the conversions nothing reads any more.
The product moves no bytes and costs ``N`` replicas' flops
(:meth:`~repro.core.cost.CostModel.flops`); its blocks are bit-identical to
RMM1's (:func:`repro.matrix.primitives.bmm`).  Like every rewrite it is
certified by :mod:`repro.verify.certify`.

The extra compute is not free, so a rewrite is taken only when the cost
model's predicted seconds (:func:`repro.core.cost.seconds`, at the
default clock's rates with one thread per worker, the dearest compute)
say it saves at least what it spends: the network time of the moves and
the latency of the stages it removes against the time of the extra
flops.  The members multiply in parallel, so the clock adds one replica's
product minus the ``1/N`` share RMM1 computed.
"""

from __future__ import annotations

from repro.config import ClockConfig
from repro.core.cost import CostModel, seconds
from repro.core.plan import ExtendedStep, MatMulStep, MatrixInstance, Plan, Step
from repro.core.stages import step_stages
from repro.core.strategies import BMM
from repro.matrix.schemes import Scheme
from repro.planopt.common import AppliedRewrite
from repro.planopt.index import PlanIndex

#: The rates a rewrite is priced at: the optimizer plans for any cluster.
_CLOCK = ClockConfig()


def replicate_products(
    plan: Plan, cost: CostModel, index: PlanIndex | None = None
) -> list[AppliedRewrite]:
    """Turn every moved product of two replicas into a ``bmm`` (in place)
    where it saves more predicted seconds than it spends."""
    index = index or PlanIndex(plan)
    rewrites: list[AppliedRewrite] = []
    stages = None  # the plan's stage count, once a candidate needs it
    for step in index.steps():
        if not isinstance(step, MatMulStep) or step.strategy not in ("rmm1", "rmm2"):
            continue
        moves = [
            reader
            for reader in index.consumers(step.output)
            if isinstance(reader, ExtendedStep) and reader.communicates
        ]
        if not moves:
            continue
        operands = [_replica(index, operand) for operand in step.inputs()]
        if None in operands:
            continue
        (left, left_steps), (right, right_steps) = operands
        product = MatMulStep(
            step.op, BMM.name, left, right, step.output.with_scheme(Scheme.BROADCAST)
        )
        if stages is None:
            stages = _stages(index)
        with index.trial():
            _rewrite(plan, index, step, moves, [*left_steps, *right_steps, product])
            fewer = stages - _stages(index)
        saved = seconds(
            sum(map(cost.comm_bytes, moves)), 0, fewer, _CLOCK, cost.num_workers, 1
        )
        spent = seconds(
            0, cost.flops(product) - cost.flops(step), 0, _CLOCK, cost.num_workers, 1
        )
        if sum(spent) > sum(saved):
            continue
        added = _rewrite(plan, index, step, moves, [*left_steps, *right_steps, product])
        stages -= fewer
        rewrites.append(
            AppliedRewrite(
                "replicate",
                f"multiplied {product.output.name} from replicas: the product "
                "is born where its readers want it, and no bytes move",
                removed=tuple(map(str, (step, *moves))),
                added=tuple(map(str, added)),
            )
        )
    if rewrites:
        index.toposort()
    return rewrites


def _rewrite(
    plan: Plan, index: PlanIndex, step: MatMulStep, moves: list[Step], added: list[Step]
) -> list[Step]:
    """Replace ``step`` and its ``moves`` by ``added`` (which ends with the
    ``bmm``) plus the free extracts the 1-D readers still need."""
    product = added[-1]
    added = list(added)
    index.remove(step)
    for move in moves:
        index.remove(move)
        if move.kind == "partition":  # the other 1-D layout: extracted
            added.append(ExtendedStep("extract", product.output, move.target))
    if index.readers(step.output) or step.output in plan.outputs.values():
        added.append(ExtendedStep("extract", product.output, step.output))
    for new in added:
        index.append(new)
    return added


def _stages(index: PlanIndex) -> int:
    return max(step_stages(index.toposorted()), default=0)


def _replica(
    index: PlanIndex, operand: MatrixInstance
) -> tuple[MatrixInstance, list[Step]] | None:
    """The replica of ``operand`` the plan already has, with the free
    transpose that makes it when only its transpose is replicated; ``None``
    if there is neither.  (No replica depends on the product: a layout of a
    matrix is made from its other layouts, and the matrix itself exists
    before the product that reads it.)"""
    replica = operand.with_scheme(Scheme.BROADCAST)
    if index.producer(replica) is not None:
        return replica, []
    flipped = MatrixInstance(operand.name, not operand.transposed, Scheme.BROADCAST)
    if index.producer(flipped) is not None:
        return replica, [ExtendedStep("transpose", flipped, replica)]
    return None
