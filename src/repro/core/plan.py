"""Execution-plan representation: matrix instances and plan steps.

A plan is a DAG like the paper's Figure 3: nodes are *matrix instances*
(a logical matrix, possibly transposed, laid out under a scheme -- e.g.
``W1^T(b)``) and edges are either original compute operators or the five
extended operators (``partition``, ``broadcast``, ``transpose``,
``reference``, ``extract``) that realise dependencies.  Instances are
interned, one live object per (name, transposed, scheme), so every map
keyed by instance hashes and compares them by identity.

We store the plan as a topologically-ordered step list; the stage scheduler
(:mod:`repro.core.stages`) later annotates each step with its stage number,
whose boundaries sit exactly on the communicating edges.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Optional, Union

from repro.lang.program import (
    AggregateOp,
    CellwiseOp,
    FullOp,
    LoadOp,
    MatMulOp,
    MatrixProgram,
    RandomOp,
    RowAggOp,
    ScalarComputeOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)
from repro.matrix.schemes import Scheme

#: Extended operator kinds that move bytes between workers.
COMMUNICATING_KINDS = frozenset({"partition", "broadcast"})


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class MatrixInstance:
    """A concrete distributed materialisation of a logical matrix.

    Hash-consed: ``MatrixInstance(name, transposed, scheme)`` returns the
    one live instance of that triple, however it is built (positionally,
    by keyword, by :func:`dataclasses.replace`, :meth:`with_scheme`,
    ``copy``, ``deepcopy`` or ``pickle``).  Equality is therefore identity
    and the hash is ``object``'s, so the maps every planning layer keys by
    instance hash and compare in C.  The hash is an address: set order may
    differ between two instances of one triple minted at different times,
    so nothing may depend on the iteration order of a set of instances.
    """

    name: str  # program version name, e.g. "W@2"
    transposed: bool  # this instance holds the transpose of `name`
    scheme: Scheme
    #: ``str(self)``, printed far more often than instances are made.
    _text: str = dataclasses.field(init=False, repr=False)

    def __new__(cls, name: str, transposed: bool, scheme: Scheme) -> "MatrixInstance":
        key = (name, transposed, scheme)
        ref = _INSTANCES.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        with _MINT_LOCK:  # two threads must never mint twins
            ref = _INSTANCES.get(key)
            self = ref() if ref is not None else None
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "name", name)
                object.__setattr__(self, "transposed", transposed)
                object.__setattr__(self, "scheme", scheme)
                suffix = "^T" if transposed else ""
                object.__setattr__(self, "_text", f"{name}{suffix}({scheme._value_})")
                _INSTANCES[key] = weakref.KeyedRef(self, _forget, key)
            return self

    def __reduce__(self) -> tuple:  # so copy, deepcopy and pickle intern too
        return MatrixInstance, (self.name, self.transposed, self.scheme)

    def __str__(self) -> str:
        return self._text

    def with_scheme(self, scheme: Scheme) -> "MatrixInstance":
        return MatrixInstance(self.name, self.transposed, scheme)


#: The intern table: (name, transposed, scheme) -> a weak reference to the
#: live instance.  It keeps nothing alive; a dead entry is dropped by its
#: reference's callback, atomically and only while it is still dead.
_INSTANCES: dict[tuple[str, bool, Scheme], weakref.KeyedRef] = {}
_MINT_LOCK = threading.Lock()


def _forget(ref: weakref.KeyedRef) -> None:
    _remove_dead_weakref(_INSTANCES, ref.key)


@dataclasses.dataclass
class Step:
    """Base plan step.  ``stage`` is assigned by the stage scheduler.

    Every step kind answers the same four structural questions --
    :meth:`inputs`, :meth:`scalar_inputs`, :meth:`output_instance` and
    :meth:`scalar_output` -- so the stage scheduler, the stage graph and
    the operator registry can traverse plans without per-kind switches.
    """

    stage: int = dataclasses.field(default=0, init=False)

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return ()

    def scalar_inputs(self) -> tuple[str, ...]:
        """Driver scalars this step reads (by name)."""
        op = getattr(self, "op", None)
        return op.scalar_inputs() if op is not None else ()

    def output_instance(self) -> MatrixInstance | None:
        """The matrix instance this step produces, if any."""
        return None

    def scalar_output(self) -> str | None:
        """The driver scalar this step produces, if any."""
        return None

    @property
    def communicates(self) -> bool:
        return False


@dataclasses.dataclass
class SourceStep(Step):
    """Materialise a load / random / constant matrix."""

    op: Union[LoadOp, RandomOp, FullOp]
    output: MatrixInstance

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    def __str__(self) -> str:
        kind = type(self.op).__name__.replace("Op", "").lower()
        return f"{self.output} <- {kind}"


@dataclasses.dataclass
class ExtendedStep(Step):
    """One of the extended operators realising a dependency."""

    kind: str  # partition | broadcast | transpose | extract
    source: MatrixInstance
    target: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.source,)

    def output_instance(self) -> MatrixInstance | None:
        return self.target

    @property
    def communicates(self) -> bool:
        return self.kind in COMMUNICATING_KINDS

    def __str__(self) -> str:
        return f"{self.target} <- {self.kind}({self.source})"


@dataclasses.dataclass
class MatMulStep(Step):
    """A matrix multiplication under a chosen strategy."""

    op: MatMulOp
    strategy: str  # rmm1 | rmm2 | cpmm
    left: MatrixInstance
    right: MatrixInstance
    output: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.left, self.right)

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    @property
    def communicates(self) -> bool:
        return self.strategy == "cpmm"  # the aggregation shuffle

    def __str__(self) -> str:
        return f"{self.output} <- {self.strategy}({self.left}, {self.right})"


@dataclasses.dataclass
class CellwiseStep(Step):
    op: CellwiseOp
    left: MatrixInstance
    right: MatrixInstance
    output: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.left, self.right)

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    def __str__(self) -> str:
        return f"{self.output} <- {self.op.op}({self.left}, {self.right})"


@dataclasses.dataclass
class FusedCellwiseStep(Step):
    """A chain of cellwise steps collapsed into one composed block kernel.

    Produced only by the optimizer's fusion pass (:mod:`repro.planopt.fuse`),
    never by the planner.  ``chain`` holds the original
    :class:`CellwiseStep` objects in dependency order; every chain output
    except the last is a fusion-internal temporary that is no longer
    materialised as a distributed matrix -- the local engine composes the
    whole chain per block (:mod:`repro.localexec.fused`).  The chain tuple is
    treated as immutable: optimizer passes run before fusion, so nothing
    renames instances inside it.
    """

    chain: tuple[CellwiseStep, ...]
    output: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        produced = {inner.output for inner in self.chain}
        seen: dict[MatrixInstance, None] = {}
        for inner in self.chain:
            for operand in (inner.left, inner.right):
                if operand not in produced:
                    seen.setdefault(operand, None)
        return tuple(seen)

    def scalar_inputs(self) -> tuple[str, ...]:
        names: dict[str, None] = {}
        for inner in self.chain:
            for name in inner.scalar_inputs():
                names.setdefault(name, None)
        return tuple(names)

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    @property
    def ops(self) -> tuple[str, ...]:
        """The fused cellwise op names, in application order."""
        return tuple(inner.op.op for inner in self.chain)

    def __str__(self) -> str:
        body = ";".join(
            f"{inner.op.op}({inner.left},{inner.right})->{inner.output.name}"
            for inner in self.chain
        )
        return f"{self.output} <- fused[{body}]"


@dataclasses.dataclass
class ScalarMatrixStep(Step):
    op: ScalarMatrixOp
    source: MatrixInstance
    output: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.source,)

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    def __str__(self) -> str:
        return f"{self.output} <- {self.op.op}({self.source}, {self.op.scalar})"


@dataclasses.dataclass
class UnaryStep(Step):
    """Element-wise unary function (communication-free, scheme-preserving)."""

    op: UnaryMatrixOp
    source: MatrixInstance
    output: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.source,)

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    def __str__(self) -> str:
        return f"{self.output} <- {self.op.func}({self.source})"


@dataclasses.dataclass
class RowAggStep(Step):
    """Row/column sums under a chosen strategy."""

    op: RowAggOp
    strategy: str  # rowsum-aligned | rowsum-b | rowsum-opposed | colsum-*
    source: MatrixInstance
    output: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.source,)

    def output_instance(self) -> MatrixInstance | None:
        return self.output

    @property
    def communicates(self) -> bool:
        return self.strategy.endswith("-opposed")  # the partial-sum shuffle

    def __str__(self) -> str:
        return f"{self.output} <- {self.op.kind}({self.source})"


@dataclasses.dataclass
class AggregateStep(Step):
    op: AggregateOp
    source: MatrixInstance

    def inputs(self) -> tuple[MatrixInstance, ...]:
        return (self.source,)

    def scalar_output(self) -> str | None:
        return self.op.output

    def __str__(self) -> str:
        return f"{self.op.output} <- {self.op.kind}({self.source})"


@dataclasses.dataclass
class ScalarComputeStep(Step):
    op: ScalarComputeOp

    def scalar_output(self) -> str | None:
        return self.op.output

    def __str__(self) -> str:
        return f"{self.op.output} <- scalar-compute"


@dataclasses.dataclass
class Plan:
    """A complete execution plan for a matrix program."""

    program: MatrixProgram
    steps: list[Step]
    outputs: dict[str, MatrixInstance]  # program output name -> readable instance
    predicted_bytes: int  # communication the plan expects to incur
    num_stages: int = 0  # filled by the stage scheduler
    #: Instances the optimizer marked loop-invariant: the runtime keeps them
    #: pinned in the BlockCache until their last consumer has run.
    cache_pins: tuple[MatrixInstance, ...] = ()
    #: Audit trail of optimizer rewrites (``repro plan --show-rewrites``).
    rewrites: tuple = ()
    #: Translation-validation certificates issued by :mod:`repro.verify`:
    #: one per applied optimizer pass plus one end-to-end record.
    certificates: tuple = ()
    #: Plans another program the way this plan was planned (same planner,
    #: cluster size, heuristics and estimation mode): the optimizer plans a
    #: reassociated program with it.  ``None`` on a hand-built plan.
    replan: Optional[Callable[[MatrixProgram], "Plan"]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def communicating_steps(self) -> list[Step]:
        return [step for step in self.steps if step.communicates]

    def stamp(self) -> tuple:
        """Plans are edited in place; a fact derived from one is good while
        the stamp it was derived under equals this.  Sees the step list
        (insert / pop / append / reorder), every field of every step, and
        ``num_stages``, ``cache_pins``, ``outputs``; not an edit *inside* an
        operator or to the program's dims."""
        return (
            self.num_stages,
            self.cache_pins,
            tuple(self.outputs.items()),
            [(type(step), *vars(step).values()) for step in self.steps],
        )

    def structural_hash(self) -> str:
        """Stable digest of the plan's structure (steps, outputs, pins,
        symbolic output values).  Two plans with equal hashes compute the
        same outputs by the same steps under the same layouts; see
        :func:`repro.planopt.structural.plan_structural_hash`."""
        from repro.planopt.structural import plan_structural_hash

        return plan_structural_hash(self)

    def describe(self) -> str:
        """Stage-annotated plan listing (the textual analogue of Figure 3)."""
        lines = []
        current_stage = None
        for step in self.steps:
            if step.stage != current_stage:
                current_stage = step.stage
                lines.append(f"-- stage {current_stage} --")
            marker = " [comm]" if step.communicates else ""
            lines.append(f"  {step}{marker}")
        return "\n".join(lines)
