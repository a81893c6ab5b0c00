"""Composed cellwise-chain kernels: the engine's one element-wise binary kernel.

A :class:`~repro.core.plan.FusedCellwiseStep` carries the original cellwise
steps of a fused chain.  :func:`lower_chain` flattens that plan-level
payload into a :class:`FusedChain` -- op names plus positional operand
references -- which the local engine evaluates per block key with
:func:`compose_key`.  A plain cell-wise step is a chain of one link
(:func:`one_link`), so :func:`chain_key_sets` is the only key policy and
:func:`compose_key` the only absent-block, sparse-format and flop rule:
a fused chain is byte-identical to running its links one at a time, and
the win is that no intermediate chain value is ever registered, published
or shuffled as a distributed grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.blocks import ops
from repro.blocks.ops import Block
from repro.errors import BlockError

if TYPE_CHECKING:  # plan types only annotate; importing them would cycle
    from repro.core.plan import FusedCellwiseStep, MatrixInstance

BlockKey = Tuple[int, int]
Grid = Mapping[BlockKey, Block]

#: A reference to a chain value: ``("in", i)`` is the i-th external input
#: grid, ``("tmp", j)`` is the output of chain entry ``j``.
ChainRef = Tuple[str, int]

#: Flop-recording callback: ``record(flops, sparse)``.
RecordFn = Callable[[int, bool], None]


@dataclass(frozen=True)
class FusedChain:
    """Engine-level lowering of a fused cellwise chain.

    ``steps`` holds ``(op, left_ref, right_ref)`` triples in application
    order; references are resolved against the external input grids and the
    earlier chain entries.  Free of plan-level instances, so the engine and
    tests can build chains directly.
    """

    steps: Tuple[Tuple[str, ChainRef, ChainRef], ...]
    num_inputs: int

    def __post_init__(self) -> None:
        if not self.steps:
            raise BlockError("fused chain must contain at least one step")
        for position, (op, left, right) in enumerate(self.steps):
            if op not in ops.CELLWISE_OPS:
                raise BlockError(f"unknown cell-wise operator {op!r}")
            for kind, index in (left, right):
                if kind == "in":
                    if not 0 <= index < self.num_inputs:
                        raise BlockError(
                            f"fused chain step {position} references input "
                            f"{index} of {self.num_inputs}"
                        )
                elif kind == "tmp":
                    if not 0 <= index < position:
                        raise BlockError(
                            f"fused chain step {position} references "
                            f"temporary {index} before it is produced"
                        )
                else:
                    raise BlockError(f"unknown chain reference kind {kind!r}")


def _link(op: str) -> FusedChain:
    return FusedChain(((op, ("in", 0), ("in", 1)),), 2)


#: The one-link chain of every cell-wise operator, built (and validated) once.
_ONE_LINK: Dict[str, FusedChain] = {op: _link(op) for op in ops.CELLWISE_OPS}


def one_link(op: str) -> FusedChain:
    """A plain cell-wise step ``op(in 0, in 1)`` as a chain of one link;
    an unknown ``op`` raises the chain constructor's
    :class:`~repro.errors.BlockError`."""
    chain = _ONE_LINK.get(op)
    return chain if chain is not None else _link(op)


def lower_chain(
    step: FusedCellwiseStep,
) -> Tuple[FusedChain, Tuple[MatrixInstance, ...]]:
    """Flatten a plan-level fused step into a :class:`FusedChain` plus the
    external input instances, in the order the chain's references use."""
    external = step.inputs()
    input_index = {instance: i for i, instance in enumerate(external)}
    tmp_index: Dict[MatrixInstance, int] = {}
    steps: List[Tuple[str, ChainRef, ChainRef]] = []
    for position, inner in enumerate(step.chain):
        refs: List[ChainRef] = []
        for operand in (inner.left, inner.right):
            if operand in tmp_index:
                refs.append(("tmp", tmp_index[operand]))
            else:
                refs.append(("in", input_index[operand]))
        steps.append((inner.op.op, refs[0], refs[1]))
        tmp_index[inner.output] = position
    return FusedChain(tuple(steps), len(external)), external


def chain_key_sets(
    chain: FusedChain, input_keys: Tuple[FrozenSet[BlockKey], ...]
) -> List[FrozenSet[BlockKey]]:
    """The block-key set of every chain value, under the cell-wise key
    policies (absent blocks are all-zero): ``multiply`` intersects,
    ``add``/``subtract`` union, ``divide`` keeps the numerator's keys and
    requires the denominator to cover them (raising
    :class:`~repro.errors.BlockError` otherwise)."""
    if len(input_keys) != chain.num_inputs:
        raise BlockError(
            f"fused chain expects {chain.num_inputs} input grids, "
            f"got {len(input_keys)}"
        )
    tmp_keys: List[FrozenSet[BlockKey]] = []
    for op, (left_kind, left_at), (right_kind, right_at) in chain.steps:
        left_keys = input_keys[left_at] if left_kind == "in" else tmp_keys[left_at]
        right_keys = input_keys[right_at] if right_kind == "in" else tmp_keys[right_at]
        if op == "multiply":
            out = left_keys & right_keys
        elif op == "divide":
            missing = sorted(left_keys - right_keys)
            if missing:
                raise BlockError(
                    f"cell-wise divide: denominator grid lacks blocks {missing[:3]}"
                )
            out = left_keys
        else:
            out = left_keys | right_keys
        tmp_keys.append(out)
    return tmp_keys


def compose_key(
    chain: FusedChain,
    key: BlockKey,
    grids: Tuple[Grid, ...],
    record: RecordFn,
) -> Optional[Block]:
    """Evaluate the whole chain for one block key.

    Each link follows the absent-block rules of the cell-wise operators: an
    absent operand of ``add`` copies the present one, of ``subtract``
    negates it (an absent right operand copies the left), and ``multiply``
    with an absent operand is an absent (all-zero) result.
    Temporaries live only for the duration of this call -- nothing is
    published.  Returns ``None`` when the final value has no block at
    ``key`` (callers normally iterate the final key set, where the result
    is always a block).
    """
    tmps: List[Optional[Block]] = []
    for op, (left_kind, left_at), (right_kind, right_at) in chain.steps:
        left = grids[left_at].get(key) if left_kind == "in" else tmps[left_at]
        right = grids[right_at].get(key) if right_kind == "in" else tmps[right_at]
        if left is not None and right is not None:
            result = ops.cellwise(op, left, right)
            flops = ops.cellwise_flops(left, right)
            sparse = left.is_sparse or right.is_sparse
        elif op == "multiply" or (left is None and (right is None or op == "divide")):
            tmps.append(None)
            continue
        else:  # one operand is absent (all-zero)
            present = right if left is None else left
            assert present is not None
            if left is None and op == "subtract":
                result = ops.scalar_op("multiply", present, -1.0)
            else:
                result = present.copy()
            flops = ops.cellwise_flops(present, present)
            sparse = present.is_sparse
        record(flops, sparse)
        tmps.append(result)
    return tmps[-1]
