"""Chain association: multiply each product chain in its flop-minimal order.

The program's own association is the user's: ``W @ H @ H.T`` parses as
``(W H) H^T``, which in GNMF multiplies through the ``d x w`` product of the
factors when ``W (H H^T)`` needs only a ``k x k`` one.  A **product chain**
is three or more operands joined by multiplications whose intermediates
have exactly one reader -- the next link of the same chain -- and are
neither a program output nor a user variable, so nothing else can observe
which intermediates exist.  Each chain's order is chosen by the classic
matrix-chain dynamic program over :meth:`~repro.core.cost.CostModel.
product_flops` (``2 m k n`` times the left operand's estimated density);
a chain is rewritten only when that order is strictly cheaper than the
program's.

Reassociating changes which matrices exist, so it is done on the program
and the result planned again (:attr:`~repro.core.plan.Plan.replan`) -- one
extra planner run, and none when every chain is already in order.
:func:`~repro.planopt.pipeline.optimize_plan` keeps the reassociated plan
only if the cost model says it ships no more bytes and does fewer flops.
Floating-point addition is not associative, so the kept plan computes what
its own program (``plan.program``) announces, bit for bit, and the user's
program to rounding.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.core.cost import CostModel
from repro.lang.program import MatMulOp, MatrixProgram, Operand
from repro.planopt.common import AppliedRewrite

#: A multiplication order over a chain's leaves: a leaf index or a pair.
Tree = Union[int, tuple["Tree", "Tree"]]


@dataclasses.dataclass(frozen=True)
class _Chain:
    root: MatMulOp  # the last product; its output keeps its name
    members: tuple[str, ...]  # the intermediates, in program order
    leaves: tuple[Operand, ...]
    order: Tree  # the program's association


@dataclasses.dataclass(frozen=True)
class _Priced:
    flops: int
    rows: int
    cols: int
    density: float
    tree: Tree


def reassociate(
    program: MatrixProgram, cost: CostModel
) -> tuple[MatrixProgram, list[AppliedRewrite]] | None:
    """The program with every product chain in its flop-minimal order and
    one ``associate`` rewrite per chain it moved; ``None`` when every chain
    is already in order."""
    position = {op.output: index for index, op in enumerate(program.ops)}
    replaced: dict[int, list[MatMulOp]] = {}  # root position -> new links
    dropped: set[str] = set()
    dims = dict(program.dims)
    rewrites: list[AppliedRewrite] = []
    for chain in _chains(program):
        priced = [
            _leaf(program, cost, leaf, index) for index, leaf in enumerate(chain.leaves)
        ]
        best = _cheapest(priced, cost)
        before = _price(chain.order, priced, cost)
        if best.flops >= before.flops:
            continue
        names = iter(chain.members)
        links: list[MatMulOp] = []

        def emit(tree: Tree, output: str | None = None) -> Operand:
            if isinstance(tree, int):
                return chain.leaves[tree]
            left, right = emit(tree[0]), emit(tree[1])
            name = output or next(names)
            dims[name] = (
                program.dims_of(chain.leaves[_first(tree)])[0],
                program.dims_of(chain.leaves[_last(tree)])[1],
            )
            links.append(MatMulOp(name, left, right))
            return Operand(name)

        emit(best.tree, chain.root.output)
        replaced[position[chain.root.output]] = links
        rewrites.append(
            AppliedRewrite(
                "associate",
                f"multiplied {chain.root.output} as "
                f"{_spell(best.tree, chain.leaves)} instead of "
                f"{_spell(chain.order, chain.leaves)}: "
                f"{before.flops:,} -> {best.flops:,} predicted flops",
                removed=tuple(
                    _spell_op(op)
                    for op in program.ops
                    if op.output in chain.members or op is chain.root
                ),
                added=tuple(map(_spell_op, links)),
            )
        )
        dropped.update(chain.members)
    if not rewrites:
        return None
    ops = []
    for index, op in enumerate(program.ops):
        if index in replaced:
            ops.extend(replaced[index])  # the new links, where the root was
        elif op.output not in dropped:
            ops.append(op)
    return dataclasses.replace(program, ops=tuple(ops), dims=dims), rewrites


def _chains(program: MatrixProgram) -> list[_Chain]:
    """Every product chain of three or more operands, in program order."""
    products = {op.output: op for op in program.ops if isinstance(op, MatMulOp)}
    readers: dict[str, int] = {}
    for op in program.ops:
        for operand in op.matrix_inputs():
            readers[operand.name] = readers.get(operand.name, 0) + 1
    visible = {*program.outputs, *program.bindings.values()}

    def intermediate(operand: Operand) -> MatMulOp | None:
        op = products.get(operand.name)
        if (
            op is None
            or operand.transposed
            or operand.name in visible
            or readers[operand.name] != 1
        ):
            return None
        return op

    inner = {
        operand.name
        for op in products.values()
        for operand in op.matrix_inputs()
        if intermediate(operand) is not None
    }
    order_of = {name: index for index, name in enumerate(products)}
    chains = []
    for root in products.values():
        if root.output in inner:
            continue
        leaves: list[Operand] = []
        members: list[str] = []

        def walk(operand: Operand) -> Tree:
            op = intermediate(operand)
            if op is None:
                leaves.append(operand)
                return len(leaves) - 1
            members.append(op.output)
            return (walk(op.left), walk(op.right))

        order = (walk(root.left), walk(root.right))
        if len(leaves) >= 3:
            members.sort(key=order_of.__getitem__)
            chains.append(_Chain(root, tuple(members), tuple(leaves), order))
    return chains


def _leaf(
    program: MatrixProgram, cost: CostModel, operand: Operand, index: int
) -> _Priced:
    rows, cols = program.dims_of(operand)
    return _Priced(0, rows, cols, cost.estimator.sparsity_of(operand), index)


def _join(left: _Priced, right: _Priced, cost: CostModel, tree: Tree) -> _Priced:
    return _Priced(
        left.flops
        + right.flops
        + cost.product_flops(left.rows, left.cols, right.cols, left.density),
        left.rows,
        right.cols,
        cost.estimator.product_sparsity(left.density, right.density, left.cols),
        tree,
    )


def _price(tree: Tree, leaves: list[_Priced], cost: CostModel) -> _Priced:
    """What multiplying in ``tree``'s order costs."""
    if isinstance(tree, int):
        return leaves[tree]
    left, right = (_price(part, leaves, cost) for part in tree)
    return _join(left, right, cost, tree)


def _cheapest(leaves: list[_Priced], cost: CostModel) -> _Priced:
    """The matrix-chain dynamic program; ties keep the leftmost split."""
    best = {(i, i): leaf for i, leaf in enumerate(leaves)}
    count = len(leaves)
    for span in range(1, count):
        for i in range(count - span):
            j = i + span
            candidates = (
                _join(left, right, cost, (left.tree, right.tree))
                for left, right in (
                    (best[i, split], best[split + 1, j]) for split in range(i, j)
                )
            )
            best[i, j] = min(candidates, key=lambda priced: priced.flops)
    return best[0, count - 1]


def _first(tree: Tree) -> int:
    return tree if isinstance(tree, int) else _first(tree[0])


def _last(tree: Tree) -> int:
    return tree if isinstance(tree, int) else _last(tree[1])


def _spell(tree: Tree, leaves: tuple[Operand, ...]) -> str:
    if isinstance(tree, int):
        return str(leaves[tree])
    return f"({_spell(tree[0], leaves)} {_spell(tree[1], leaves)})"


def _spell_op(op: MatMulOp) -> str:
    return f"{op.output} = {op.left} @ {op.right}"
