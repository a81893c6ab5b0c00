"""Translation validation for :mod:`repro.planopt` rewrites.

The optimizer's passes re-bind *where* matrices live -- merge duplicate
subtrees, flip matmul strategies, re-route repartition chains, pin
loop-invariants -- but must never change *what* is computed.  This module
certifies exactly that, statically, by reducing both the pre- and
post-rewrite plan to **symbolic value keys**: every logical matrix name is
assigned a structural term built from the compute steps that define it
(``("@", read(A), read(B))`` for a multiply, ...), with extended operators
(partition / broadcast / extract / transpose) contributing only layout --
a transpose wraps the term in a self-cancelling ``("T", .)`` marker.
Keys are compared :func:`flattened`: ``(A B) C`` and ``A (B C)`` are both
``("@", A, B, C)``, which is what lets the optimizer reassociate a product
chain.

Two plans are certified equivalent when, for every program output (matrix
and scalar), the value keys agree, the dataflow stays well-ordered, no
name acquires conflicting definitions, and the shape facts of the
outputs survive.  Scheme/strategy choices are deliberately *absent* from
the keys: they are the degrees of freedom the optimizer is allowed to
exercise.  Operand order is deliberately *present*, even for commutative
operators: no current pass reorders operands, so a swapped ``divide`` (the
classic broken-rewrite bug) fails certification immediately -- and so do a
swapped product and a misplaced transpose (``W (H^T H)`` for ``W H H^T``).

Certification is intentionally conservative -- a sound rewrite expressed
through terms this analysis cannot equate would be rejected, never the
reverse.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.defuse import DefUse
from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    FusedCellwiseStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    ProductChainStep,
    RowAggStep,
    ScalarComputeStep,
    ScalarMatrixStep,
    SourceStep,
    UnaryStep,
)
from repro.errors import TranslationValidationError
from repro.lang.program import FullOp, LoadOp, RandomOp
from repro.lang.expr import (
    AggExpr,
    ScalarBinaryExpr,
    ScalarConst,
    ScalarExpr,
    ScalarRefExpr,
    ScalarUnaryExpr,
)
from repro.verify.analysis import Shape, solve_shapes

#: A symbolic value: an interned :class:`Term` or an atomic string/number.
ValueKey = object


class Term:
    """A hash-consed symbolic value node: ``head`` plus interned children.

    Terms are only created through :func:`term`, which interns them so that
    structural equality coincides with object identity.  That makes ``==``
    on two value keys O(1) regardless of expression depth.  Naive nested
    tuples fail here: an unrolled power iteration (SVD's Lanczos chain)
    duplicates each previous term in the next one, so the *tree* a key
    denotes grows exponentially with plan depth even though the DAG is
    linear -- and comparing the before/after plans of a rewrite, which
    share no tuple objects, walks that whole tree.
    """

    __slots__ = ("head", "args")

    def __init__(self, head: object, args: Tuple[object, ...]) -> None:
        self.head = head
        self.args = args

    def _format(self, depth: int) -> str:
        if depth <= 0:
            return "..."
        parts = [repr(self.head)] + [
            arg._format(depth - 1) if isinstance(arg, Term) else repr(arg)
            for arg in self.args
        ]
        return "(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:
        return self._format(4)


#: Intern table.  Children are already interned when a term is built, so the
#: key hashes atoms by value and Terms by identity -- O(arity) per node.
_INTERNED: Dict[Tuple[object, ...], Term] = {}


def term(head: object, *args: object) -> Term:
    """Build (or reuse) the unique interned term ``head(*args)``."""
    key = (head, *args)
    interned = _INTERNED.get(key)
    if interned is None:
        interned = _INTERNED[key] = Term(head, key[1:])
    return interned

#: The obligations :func:`certify` discharges, in the order checked.
OBLIGATIONS: Tuple[str, ...] = (
    "outputs-preserved",
    "dataflow-well-ordered",
    "no-conflicting-redefinition",
    "value-equivalence",
    "scalar-equivalence",
    "shape-agreement",
    "pins-produced",
    "fusion-chain-equivalence",
)


#: Term -> its flattened form (:func:`flattened`), one entry per interned node.
_FLAT: Dict[Term, Term] = {}


def flattened(key: ValueKey) -> ValueKey:
    """``key`` with nested products flattened into n-ary ones: ``(A B) C``
    and ``A (B C)`` both become ``("@", A, B, C)``, while operand order and
    each factor's transposes stay in the term.  Iterative, and memoised on
    the interned DAG, so an unrolled chain costs one visit per node."""
    if not isinstance(key, Term):
        return key
    stack = [key]
    while stack:
        node = stack[-1]
        if node in _FLAT:
            stack.pop()
            continue
        pending = [a for a in node.args if isinstance(a, Term) and a not in _FLAT]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        args = [_FLAT[a] if isinstance(a, Term) else a for a in node.args]
        if node.head == "@":
            args = [
                factor
                for arg in args
                for factor in (
                    arg.args if isinstance(arg, Term) and arg.head == "@" else (arg,)
                )
            ]
        _FLAT[node] = term(node.head, *args)
    return _FLAT[key]


def _t(key: ValueKey) -> ValueKey:
    """Transpose marker with ``T(T(x)) = x`` normalisation."""
    if isinstance(key, Term) and key.head == "T":
        return key.args[0]
    return term("T", key)


@dataclasses.dataclass(frozen=True)
class ValueConflict:
    """A logical name redefined to a *different* symbolic value."""

    name: str
    step: int  # plan index of the conflicting definition
    existing: ValueKey
    conflicting: ValueKey


@dataclasses.dataclass(frozen=True)
class ValueSummary:
    """Per-plan symbolic values: logical name -> term, plus conflicts.
    (Reads no producer precedes are def-use facts:
    :meth:`~repro.core.defuse.DefUse.order_violations`.)"""

    matrices: Dict[str, ValueKey]
    scalars: Dict[str, ValueKey]
    conflicts: Tuple[ValueConflict, ...]


def _canon_expr(expr: ScalarExpr, scalars: Dict[str, ValueKey]) -> ValueKey:
    if isinstance(expr, ScalarConst):
        return term("const", expr.value)
    if isinstance(expr, ScalarRefExpr):
        return scalars.get(expr.name, term("free-scalar", expr.name))
    if isinstance(expr, ScalarBinaryExpr):
        return term(
            expr.op,
            _canon_expr(expr.left, scalars),
            _canon_expr(expr.right, scalars),
        )
    if isinstance(expr, ScalarUnaryExpr):
        return term(expr.op, _canon_expr(expr.child, scalars))
    if isinstance(expr, AggExpr):  # normally lowered before planning
        return term("agg", expr.kind, repr(expr.child))
    return term("opaque", repr(expr))


def value_summary(plan: Plan) -> ValueSummary:
    """Symbolically evaluate a plan's dataflow into per-name value keys."""
    matrices: Dict[str, ValueKey] = {}
    scalars: Dict[str, ValueKey] = {}
    conflicts: List[ValueConflict] = []

    def read(instance: MatrixInstance) -> ValueKey:
        base = matrices.get(instance.name, term("free", instance.name))
        return _t(base) if instance.transposed else base

    def scalar_term(scalar: object) -> ValueKey:
        if isinstance(scalar, str):
            return scalars.get(scalar, term("free-scalar", scalar))
        return term("const", scalar)

    def define(index: int, instance: MatrixInstance, physical: ValueKey) -> None:
        value = _t(physical) if instance.transposed else physical
        existing = matrices.get(instance.name)
        if existing is None:
            matrices[instance.name] = value
        elif existing != value:
            conflicts.append(
                ValueConflict(instance.name, index, existing, value)
            )

    for index, step in enumerate(plan.steps):
        physical: Optional[ValueKey] = None
        if isinstance(step, SourceStep):
            op = step.op
            if isinstance(op, LoadOp):
                physical = term("load", op.output)
            elif isinstance(op, RandomOp):
                physical = term("random", op.rows, op.cols, op.seed)
            elif isinstance(op, FullOp):
                physical = term("full", op.rows, op.cols, op.value)
        elif isinstance(step, ExtendedStep):
            physical = read(step.source)
            if step.kind == "transpose":
                physical = _t(physical)
        elif isinstance(step, MatMulStep):
            physical = term("@", read(step.left), read(step.right))
        elif isinstance(step, CellwiseStep):
            physical = term("cw", step.op.op, read(step.left), read(step.right))
        elif isinstance(step, FusedCellwiseStep):
            # Replay the fused chain symbolically: the fused step's value is
            # *defined* as the composition of its original cellwise steps, so
            # fusing provably cannot invent a new value.  Intermediates live
            # only in this local environment -- like the kernel, nothing is
            # published.
            local: Dict[MatrixInstance, ValueKey] = {}
            for inner in step.chain:
                local[inner.output] = term(
                    "cw",
                    inner.op.op,
                    local.get(inner.left, read(inner.left)),
                    local.get(inner.right, read(inner.right)),
                )
            physical = local[step.chain[-1].output]
        elif isinstance(step, ProductChainStep):
            # Replayed link by link, like a fused cellwise chain.
            physical = read(step.chain[0].left)
            for link in step.chain:
                physical = term("@", physical, read(link.right))
        elif isinstance(step, ScalarMatrixStep):
            physical = term(
                "sm", step.op.op, scalar_term(step.op.scalar), read(step.source)
            )
        elif isinstance(step, UnaryStep):
            physical = term("un", step.op.func, read(step.source))
        elif isinstance(step, RowAggStep):
            physical = term("ragg", step.op.kind, read(step.source))
        elif isinstance(step, AggregateStep):
            scalars.setdefault(
                step.op.output, term("agg", step.op.kind, read(step.source))
            )
        elif isinstance(step, ScalarComputeStep):
            scalars.setdefault(step.op.output, _canon_expr(step.op.expr, scalars))
        else:  # unknown step kind: opaque but deterministic
            physical = term("opaque", str(step))

        output = step.output_instance()
        if output is not None and physical is not None:
            define(index, output, physical)

    return ValueSummary(
        matrices=matrices,
        scalars=scalars,
        conflicts=tuple(conflicts),
    )


@dataclasses.dataclass(frozen=True)
class Certificate:
    """A discharged equivalence proof for one optimizer pass (or pipeline)."""

    pass_name: str
    rewrites: int  # AppliedRewrite count the certificate covers
    obligations: Tuple[str, ...]  # every obligation checked -- all held
    outputs: int  # matrix outputs proven equivalent
    scalars: int  # scalar outputs proven equivalent

    def format_human(self) -> str:
        return (
            f"[certified] {self.pass_name}: {self.rewrites} rewrite(s), "
            f"{self.outputs} output(s) + {self.scalars} scalar(s) "
            f"equivalent under {len(self.obligations)} obligations"
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "rewrites": self.rewrites,
            "obligations": list(self.obligations),
            "outputs": self.outputs,
            "scalars": self.scalars,
        }


@dataclasses.dataclass(frozen=True)
class PlanFacts:
    """Everything :func:`certify` derives from one plan alone, all of it at
    :meth:`of` time.  The parts are keyed by instances, names and step
    indices, never by step identity, so the facts of a plan hold for any
    clone of it (``clone_plan`` keeps step order): the optimizer pipeline
    computes them once per distinct plan and hands a certificate's
    ``after`` facts on as the next certificate's ``before``."""

    shapes: Dict[MatrixInstance, Shape]  # absent if unknown
    summary: ValueSummary
    defuse: DefUse

    @classmethod
    def of(cls, plan: Plan) -> "PlanFacts":
        return cls(solve_shapes(plan), value_summary(plan), DefUse.of(plan))


def _logical_shape(
    shapes: Dict[MatrixInstance, Shape], instance: MatrixInstance
) -> Optional[Shape]:
    """The shape fact of an output, untransposed; ``None`` if unknown."""
    fact = shapes.get(instance)
    if fact is None or not instance.transposed:
        return fact
    return (fact[1], fact[0])


def certify(
    before: Plan,
    after: Plan,
    *,
    pass_name: str,
    rewrites: int = 0,
    facts_before: Optional[PlanFacts] = None,
    facts_after: Optional[PlanFacts] = None,
) -> Certificate:
    """Prove ``after`` computes what ``before`` computes, or raise.

    Raises :class:`~repro.errors.TranslationValidationError` naming every
    failed obligation; returns the :class:`Certificate` when all hold.
    ``facts_before`` / ``facts_after`` must be the :class:`PlanFacts` of
    exactly these plans (computed here when omitted).
    """
    failures: List[str] = []
    facts_before = facts_before or PlanFacts.of(before)
    facts_after = facts_after or PlanFacts.of(after)
    summary_before, summary_after = facts_before.summary, facts_after.summary

    if set(after.outputs) != set(before.outputs):
        failures.append(
            "outputs-preserved: output set changed "
            f"{sorted(before.outputs)} -> {sorted(after.outputs)}"
        )

    violations = facts_after.defuse.order_violations()
    if violations:
        index, subject = violations[0]
        failures.append(
            f"dataflow-well-ordered: step {index} consumes {subject} "
            "before any producer has run"
        )
    introduced = set(facts_after.defuse.dangling()) - set(
        facts_before.defuse.dangling()
    )
    if introduced:
        failures.append(
            f"dataflow-well-ordered: rewrite introduced dangling inputs {sorted(introduced)}"
        )

    before_conflicts = {c.name for c in summary_before.conflicts}
    new_conflicts = [
        c for c in summary_after.conflicts if c.name not in before_conflicts
    ]
    if new_conflicts:
        conflict = new_conflicts[0]
        failures.append(
            f"no-conflicting-redefinition: step {conflict.step} redefines "
            f"{conflict.name!r} to a different value"
        )

    proven_outputs = 0
    for name in sorted(set(before.outputs) & set(after.outputs)):
        key_before = summary_before.matrices.get(before.outputs[name].name)
        key_after = summary_after.matrices.get(after.outputs[name].name)
        if key_before is None or key_after is None:
            failures.append(
                f"value-equivalence: output {name!r} has no symbolic value "
                f"({'before' if key_before is None else 'after'} the rewrite)"
            )
        elif flattened(key_before) != flattened(key_after):
            failures.append(
                f"value-equivalence: output {name!r} changed value: "
                f"{key_before!r} -> {key_after!r}"
            )
        else:
            proven_outputs += 1

    proven_scalars = 0
    for name in before.program.scalar_outputs:
        key_before = summary_before.scalars.get(name)
        key_after = summary_after.scalars.get(name)
        if flattened(key_before) != flattened(key_after):
            failures.append(
                f"scalar-equivalence: scalar output {name!r} changed value: "
                f"{key_before!r} -> {key_after!r}"
            )
        elif key_before is not None:
            proven_scalars += 1

    for name in sorted(set(before.outputs) & set(after.outputs)):
        inst_before, inst_after = before.outputs[name], after.outputs[name]
        shape_before = _logical_shape(facts_before.shapes, inst_before)
        shape_after = _logical_shape(facts_after.shapes, inst_after)
        if shape_before != shape_after:
            failures.append(
                f"shape-agreement: output {name!r} shape fact changed: "
                f"{shape_before} -> {shape_after}"
            )

    for step in after.steps:
        if not isinstance(step, (FusedCellwiseStep, ProductChainStep)):
            continue
        name = step.output.name
        key_before = summary_before.matrices.get(name)
        key_after = summary_after.matrices.get(name)
        if key_before is None or flattened(key_before) != flattened(key_after):
            failures.append(
                f"fusion-chain-equivalence: fused step for {step.output} does "
                "not replay to the pre-rewrite value of its chain"
            )

    for pin in after.cache_pins:
        if pin not in facts_after.defuse.producers:
            failures.append(
                f"pins-produced: cache pin {pin} has no producer step"
            )

    if failures:
        raise TranslationValidationError(
            f"rewrite by pass {pass_name!r} failed certification:\n  "
            + "\n  ".join(failures),
            pass_name=pass_name,
            obligations=tuple(failures),
        )
    return Certificate(
        pass_name=pass_name,
        rewrites=rewrites,
        obligations=OBLIGATIONS,
        outputs=proven_outputs,
        scalars=proven_scalars,
    )
