"""The rule catalog: DMac's static invariants and inefficiency lints.

Three families, mirroring the paper's correctness and cost claims:

* ``DM1xx`` -- **invariant violations** (error severity).  A plan that
  trips one of these would compute a wrong answer, break a guarantee the
  paper proves (Table-2 scheme constraints, Section-5.2 communication-free
  stages, the Eq-2/Eq-3 memory bounds), or blow a declared resource budget.
* ``DM2xx`` -- **inefficiency lints** (warning severity).  The plan is
  executable but provably wasteful under the Section-4.1 dependency-
  oriented cost model: bytes are moved (or work is done) that a better
  plan would not move.
* ``DM3xx`` -- **ordering hazards** (error severity).  The plan's
  publish/consume event schedule is not covered by the stage graph's
  happens-before relation (:mod:`repro.verify.hazards`): a pool thread
  may read an instance before its publish is visible, or two publishes
  race for one logical matrix.
* ``DM4xx`` -- **fusion lints** (warning severity).  An optimized plan
  still contains a cellwise chain the elementwise-fusion pass
  (:mod:`repro.planopt.fuse`) could not merge -- typically because an
  intermediate is needlessly published as a plan output or cache-pinned
  -- so the engine materialises block grids a fused kernel would skip.

Every rule is registered in :data:`RULES` with its id, severity, family,
one-line title, the paper section it enforces, and a generic fix hint; the
rule catalog in ``docs/linting.md`` and the ``--selftest`` harness are both
driven off this registry, so a rule cannot exist without being documented
and exercised.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.blocks.memory import max_block_size
from repro.core.cost import CostModel
from repro.core.defuse import DefUse
from repro.core.dependency import classify, is_communication
from repro.core.plan import (
    CellwiseStep,
    ExtendedStep,
    FusedCellwiseStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    ScalarMatrixStep,
    SourceStep,
    UnaryStep,
)
from repro.core.strategies import (
    BMM,
    COLSUM_STRATEGIES,
    MATMUL_STRATEGIES,
    ROWSUM_STRATEGIES,
    SOURCE_STRATEGY,
    Strategy,
)
from repro.errors import PlanError
from repro.lang.program import (
    CellwiseOp,
    MatMulOp,
    MatrixProgram,
    OpNode,
)
from repro.lint.diagnostics import Diagnostic, LintContext, Severity
from repro.matrix.schemes import Scheme
from repro.runtime.graph import StageGraph
from repro.verify.analysis import Shape
from repro.verify.hazards import (
    DOUBLE_PUBLISH,
    READ_BEFORE_PUBLISH,
    Hazard,
    find_hazards,
)
from repro.verify.memory import predict_peak_memory

_EXTENDED_KINDS = ("partition", "broadcast", "transpose", "extract")

#: The planner's three plus the optimizer's ``bmm``.
_MATMUL_BY_NAME: dict[str, Strategy] = {s.name: s for s in (*MATMUL_STRATEGIES, BMM)}
_ROWAGG_BY_NAME: dict[str, Strategy] = {
    s.name: s for s in ROWSUM_STRATEGIES + COLSUM_STRATEGIES
}


@dataclasses.dataclass(frozen=True)
class LintInput:
    """Everything a rule may inspect: a plan and its program, with each fact
    derived once by the function that owns it (docs/linting.md, "Plan
    facts")."""

    program: MatrixProgram
    context: LintContext
    plan: Plan
    #: The plan's stage graph, built (or handed in) once per ``lint_plan``;
    #: it carries the def-use record and the availability stages.
    graph: StageGraph
    #: The planner's own pricing: lint and cost model cannot disagree.
    cost: CostModel
    #: ``solve_shapes``' concrete ``(rows, cols)`` facts (absent if unknown).
    shapes: Mapping[MatrixInstance, Shape] = dataclasses.field(default_factory=dict)
    #: ``find_hazards`` on ``graph``, when the caller already has them.
    found_hazards: Sequence[Hazard] | None = None

    @property
    def defuse(self) -> DefUse:
        """Who produces and reads what (rules mean the *first* producer)."""
        return self.graph.defuse

    @functools.cached_property
    def hazards(self) -> Sequence[Hazard]:
        """One ``find_hazards`` per ``lint_plan`` at most, shared by DM301 /
        DM302: none when the caller handed them in."""
        if self.found_hazards is not None:
            return self.found_hazards
        return find_hazards(self.graph)

    def nbytes(self, name: str) -> int:
        """Estimated ``|A|``; 0 for names the program does not know (the
        shape rule reports those -- size-based rules stay quiet)."""
        try:
            return self.cost.estimator.nbytes(name)
        except PlanError:
            return 0


RuleCheck = Callable[[LintInput], Iterable[Diagnostic]]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One registered diagnostic rule."""

    id: str
    severity: Severity
    family: str  # "invariant" | "inefficiency" | "hazard" | "fusion"
    title: str
    paper: str  # the paper section / equation the rule enforces
    hint: str
    check: RuleCheck

    def diagnostic(
        self,
        message: str,
        step: int | None = None,
        subject: object = None,
        hint: str | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.id,
            severity=self.severity,
            message=message,
            hint=self.hint if hint is None else hint,
            step=step,
            subject=None if subject is None else str(subject),
        )


#: All registered rules, by id (insertion-ordered: DM1xx then DM2xx).
RULES: dict[str, Rule] = {}


def rule(
    id: str,
    *,
    severity: Severity,
    family: str,
    title: str,
    paper: str,
    hint: str = "",
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule check function under ``id``."""

    def decorate(check: RuleCheck) -> RuleCheck:
        if id in RULES:
            raise ValueError(f"duplicate rule id {id!r}")
        RULES[id] = Rule(id, severity, family, title, paper, hint, check)
        return check

    return decorate


def _rule(id: str) -> Rule:
    return RULES[id]


# ---------------------------------------------------------------------------
# Invariant violations (DM1xx, error severity)
# ---------------------------------------------------------------------------


@rule(
    "DM101",
    severity=Severity.ERROR,
    family="invariant",
    title="shape mismatch",
    paper="Section 4 (operator decomposition infers exact dimensions)",
    hint="rebuild the program through ProgramBuilder so dimensions are "
    "inferred, or fix the corrupted step's operand instances",
)
def check_shapes(inputs: LintInput) -> Iterator[Diagnostic]:
    """Abstract shape interpretation must agree with declared dimensions."""
    this = _rule("DM101")
    program = inputs.program
    for op in program.ops:
        yield from _check_op_shapes(this, program, op)
    shapes = inputs.shapes
    for index, step in enumerate(inputs.plan.steps):
        if isinstance(step, MatMulStep):
            left = shapes.get(step.left)
            right = shapes.get(step.right)
            if left and right and left[1] != right[0]:
                yield this.diagnostic(
                    f"matmul inner dimensions differ: {left[0]}x{left[1]} @ "
                    f"{right[0]}x{right[1]}",
                    step=index,
                    subject=step.output,
                )
        elif isinstance(step, (CellwiseStep, FusedCellwiseStep)):
            known = {
                instance: shape
                for instance in step.inputs()
                if (shape := shapes.get(instance)) is not None
            }
            if len(set(known.values())) > 1:
                yield this.diagnostic(
                    "cell-wise step over unequal shapes: "
                    + ", ".join(
                        f"{instance}={shape[0]}x{shape[1]}"
                        for instance, shape in known.items()
                    ),
                    step=index,
                    subject=step.output,
                )
        output = step.output_instance()
        if output is None:
            continue
        interpreted = shapes.get(output)
        if output.name not in program.dims:
            yield this.diagnostic(
                f"instance {output} has no declared dimensions in the program",
                step=index,
                subject=output,
            )
        elif interpreted is not None and interpreted != program.dims_of(output):
            yield this.diagnostic(
                f"instance {output} flows with shape {interpreted} but the "
                f"program declares {program.dims_of(output)}",
                step=index,
                subject=output,
            )


def _check_op_shapes(
    this: Rule, program: MatrixProgram, op: OpNode
) -> Iterator[Diagnostic]:
    dims = {}
    for operand in op.matrix_inputs():
        if operand.name not in program.dims:
            yield this.diagnostic(
                f"operator {op.output!r} reads {operand} which has no "
                f"declared dimensions",
                subject=op.output,
            )
            return
        dims[operand] = program.dims_of(operand)
    if isinstance(op, MatMulOp):
        (lr, lc), (rr, rc) = dims[op.left], dims[op.right]
        if lc != rr:
            yield this.diagnostic(
                f"operator {op.output!r}: matmul inner dimensions differ: "
                f"{lr}x{lc} @ {rr}x{rc}",
                subject=op.output,
            )
    elif isinstance(op, CellwiseOp):
        if dims[op.left] != dims[op.right]:
            yield this.diagnostic(
                f"operator {op.output!r}: cell-wise {op.op} over unequal "
                f"shapes {dims[op.left]} and {dims[op.right]}",
                subject=op.output,
            )


@rule(
    "DM102",
    severity=Severity.ERROR,
    family="invariant",
    title="scheme-constraint violation",
    paper="Table 2 / Section 3.1 (per-strategy scheme constraints)",
    hint="every strategy fixes its operand schemes (Figure 2); regenerate "
    "the plan or repair the strategy/instance binding",
)
def check_schemes(inputs: LintInput) -> Iterator[Diagnostic]:
    """Every step's instances must satisfy its operator's scheme contract."""
    this = _rule("DM102")
    for index, step in enumerate(inputs.plan.steps):
        if isinstance(step, ExtendedStep):
            yield from _check_extended_schemes(this, index, step)
        elif isinstance(step, SourceStep):
            if step.output.transposed or step.output.scheme not in (
                SOURCE_STRATEGY.output_schemes
            ):
                yield this.diagnostic(
                    f"source must materialise untransposed Row or Column, "
                    f"got {step.output}",
                    step=index,
                    subject=step.output,
                )
        elif isinstance(step, MatMulStep):
            strategy = _MATMUL_BY_NAME.get(step.strategy)
            if strategy is None:
                yield this.diagnostic(
                    f"unknown matmul strategy {step.strategy!r}",
                    step=index,
                    subject=step.output,
                )
                continue
            expected = strategy.input_schemes
            got = (step.left.scheme, step.right.scheme)
            if got != expected:
                yield this.diagnostic(
                    f"{strategy.name} requires input schemes "
                    f"({expected[0]}, {expected[1]}), got ({got[0]}, {got[1]})",
                    step=index,
                    subject=step.output,
                )
            if step.output.scheme not in strategy.output_schemes:
                yield this.diagnostic(
                    f"{strategy.name} cannot produce scheme "
                    f"{step.output.scheme}",
                    step=index,
                    subject=step.output,
                )
        elif isinstance(step, RowAggStep):
            strategy = _ROWAGG_BY_NAME.get(step.strategy)
            if strategy is None or not step.strategy.startswith(step.op.kind):
                yield this.diagnostic(
                    f"unknown {step.op.kind} strategy {step.strategy!r}",
                    step=index,
                    subject=step.output,
                )
                continue
            if step.source.scheme is not strategy.input_schemes[0]:
                yield this.diagnostic(
                    f"{strategy.name} requires input scheme "
                    f"{strategy.input_schemes[0]}, got {step.source.scheme}",
                    step=index,
                    subject=step.output,
                )
            if step.output.scheme not in strategy.output_schemes:
                yield this.diagnostic(
                    f"{strategy.name} cannot produce scheme "
                    f"{step.output.scheme}",
                    step=index,
                    subject=step.output,
                )
        elif isinstance(step, (CellwiseStep, FusedCellwiseStep)):
            schemes = {i.scheme for i in step.inputs()} | {step.output.scheme}
            if len(schemes) != 1:
                yield this.diagnostic(
                    f"cell-wise operands and output must share one scheme, "
                    f"got ({', '.join(str(i.scheme) for i in step.inputs())}) "
                    f"-> {step.output.scheme}",
                    step=index,
                    subject=step.output,
                )
        elif isinstance(step, (ScalarMatrixStep, UnaryStep)):
            if step.output.scheme is not step.source.scheme:
                yield this.diagnostic(
                    f"element-wise step must preserve the scheme, got "
                    f"{step.source.scheme} -> {step.output.scheme}",
                    step=index,
                    subject=step.output,
                )


def _check_extended_schemes(
    this: Rule, index: int, step: ExtendedStep
) -> Iterator[Diagnostic]:
    source, target = step.source, step.target
    if step.kind not in _EXTENDED_KINDS:
        yield this.diagnostic(
            f"unknown extended operator {step.kind!r}", step=index, subject=target
        )
        return
    if source.name != target.name:
        yield this.diagnostic(
            f"{step.kind} must stay within one logical matrix, got "
            f"{source.name!r} -> {target.name!r}",
            step=index,
            subject=target,
        )
        return
    if step.kind == "transpose":
        if target.transposed == source.transposed:
            yield this.diagnostic(
                f"transpose must flip the transposed flag: {source} -> {target}",
                step=index,
                subject=target,
            )
        if target.scheme is not source.scheme.opposite:
            yield this.diagnostic(
                f"a local transpose flips Row<->Column (and keeps Broadcast): "
                f"{source} -> {target}",
                step=index,
                subject=target,
            )
        return
    if target.transposed != source.transposed:
        yield this.diagnostic(
            f"{step.kind} cannot change the transposed flag: {source} -> {target}",
            step=index,
            subject=target,
        )
    if step.kind == "partition":
        if not (source.scheme.is_one_dimensional and target.scheme.is_one_dimensional):
            yield this.diagnostic(
                f"partition repartitions between one-dimensional schemes, "
                f"got {source.scheme} -> {target.scheme}",
                step=index,
                subject=target,
            )
    elif step.kind == "broadcast":
        if not source.scheme.is_one_dimensional or target.scheme is not Scheme.BROADCAST:
            yield this.diagnostic(
                f"broadcast replicates a one-dimensional layout, got "
                f"{source.scheme} -> {target.scheme}",
                step=index,
                subject=target,
            )
    elif step.kind == "extract":
        if source.scheme is not Scheme.BROADCAST or not target.scheme.is_one_dimensional:
            yield this.diagnostic(
                f"extract pulls a one-dimensional slice out of a replica, "
                f"got {source.scheme} -> {target.scheme}",
                step=index,
                subject=target,
            )


@rule(
    "DM103",
    severity=Severity.ERROR,
    family="invariant",
    title="wide edge inside a stage",
    paper="Section 5.2 (stages are communication-free)",
    hint="re-run the stage scheduler (repro.core.stages.schedule_stages) "
    "instead of assigning stage numbers by hand",
)
def check_stage_purity(inputs: LintInput) -> Iterator[Diagnostic]:
    """No step may consume data that only becomes available -- through a
    communicating edge -- in the same or a later stage.  The check is the
    runtime's own: :meth:`repro.runtime.graph.StageGraph.stage_violations`
    reports exactly the wide edges the concurrent scheduler cannot honour."""
    this = _rule("DM103")
    for index, instance, available in inputs.graph.stage_violations():
        step = inputs.plan.steps[index]
        yield this.diagnostic(
            f"step runs in stage {step.stage} but input {instance} "
            f"is only available from stage {available}: a "
            f"communicating edge was scheduled inside a stage",
            step=index,
            subject=instance,
        )


@rule(
    "DM104",
    severity=Severity.ERROR,
    family="invariant",
    title="cost-model / dependency-class disagreement",
    paper="Section 4.1 (dependency-oriented cost model)",
    hint="plan.predicted_bytes must equal the sum of per-step charges; "
    "regenerate the plan rather than editing steps in place",
)
def check_ledger_agreement(inputs: LintInput) -> Iterator[Diagnostic]:
    """The plan's predicted bytes must decompose exactly over its
    communicating steps under the declared dependency classes."""
    this = _rule("DM104")
    plan = inputs.plan
    try:
        total = inputs.cost.bytes(plan.steps)
    except PlanError:
        return  # a step names a matrix the program lacks: not a ledger fault
    if total != plan.predicted_bytes:
        yield this.diagnostic(
            f"plan declares {plan.predicted_bytes} predicted bytes but "
            f"its communicating steps account for {total} "
            f"(delta {plan.predicted_bytes - total:+d}) at "
            f"{inputs.cost.num_workers} workers",
        )


@rule(
    "DM105",
    severity=Severity.ERROR,
    family="invariant",
    title="block size exceeds the Equation-3 bound",
    paper="Section 5.3, Equation 3 (m <= sqrt(MN / LK))",
    hint="drop the explicit block_size (the engine auto-tunes just under "
    "the bound) or choose one below it",
)
def check_block_size(inputs: LintInput) -> Iterator[Diagnostic]:
    """A configured block size must leave every local thread a task."""
    this = _rule("DM105")
    context = inputs.context
    if context.block_size is None or not inputs.program.dims:
        return
    rows, cols = max(
        inputs.program.dims.values(), key=lambda shape: shape[0] * shape[1]
    )
    bound = max_block_size(
        rows, cols, context.num_workers, context.threads_per_worker
    )
    if context.block_size > bound:
        yield this.diagnostic(
            f"block size {context.block_size} exceeds the Equation-3 bound "
            f"{bound} for the {rows}x{cols} matrix at {context.num_workers} "
            f"workers x {context.threads_per_worker} threads: some threads "
            f"would starve",
        )


@rule(
    "DM106",
    severity=Severity.ERROR,
    family="invariant",
    title="broadcast exceeds the per-worker memory budget",
    paper="Section 5.3, Equation 2 (per-worker memory model)",
    hint="let the planner repartition instead of replicating, or raise "
    "memory_limit_bytes",
)
def check_broadcast_budget(inputs: LintInput) -> Iterator[Diagnostic]:
    """Every replica must fit the declared per-worker memory budget."""
    this = _rule("DM106")
    budget = inputs.context.memory_limit_bytes
    if budget is None:
        return
    for instance, made in inputs.defuse.producers.items():
        if instance.scheme is not Scheme.BROADCAST:
            continue
        nbytes = inputs.nbytes(instance.name)
        if nbytes > budget:
            yield this.diagnostic(
                f"replica {instance} weighs ~{nbytes} bytes on every worker, "
                f"above the {budget}-byte budget",
                step=made[0],
                subject=instance,
            )


@rule(
    "DM107",
    severity=Severity.ERROR,
    family="invariant",
    title="dangling dataflow",
    paper="Section 4.2 (plans are topologically ordered DAGs)",
    hint="plan steps must be topologically ordered and outputs must be "
    "materialised; regenerate the plan",
)
def check_dataflow(inputs: LintInput) -> Iterator[Diagnostic]:
    """Instances must be produced before use; program outputs must exist."""
    this = _rule("DM107")
    for index, instance in inputs.defuse.unproduced:
        yield this.diagnostic(
            f"step consumes {instance} before any step produces it",
            step=index,
            subject=instance,
        )
    for name, instance in inputs.plan.outputs.items():
        if instance not in inputs.defuse.producers:
            yield this.diagnostic(
                f"program output {name!r} maps to {instance}, which no step "
                f"produces",
                subject=instance,
            )


# ---------------------------------------------------------------------------
# Inefficiency lints (DM2xx, warning severity)
# ---------------------------------------------------------------------------


@rule(
    "DM201",
    severity=Severity.WARNING,
    family="inefficiency",
    title="redundant repartition",
    paper="Table 2 (Reference dependencies are free)",
    hint="drop the partition step: the data is already laid out that way",
)
def check_redundant_repartition(inputs: LintInput) -> Iterator[Diagnostic]:
    """A repartition whose source already has the target layout moves every
    byte of the matrix for nothing."""
    this = _rule("DM201")
    for index, step in enumerate(inputs.plan.steps):
        if not isinstance(step, ExtendedStep) or step.kind != "partition":
            continue
        transposed_access = step.source.transposed != step.target.transposed
        if step.source.scheme.is_one_dimensional and not is_communication(
            classify(step.source.scheme, step.target.scheme, transposed_access)
        ):
            yield this.diagnostic(
                f"repartition of {step.source} to its current scheme "
                f"{step.target.scheme} shuffles "
                f"~{inputs.nbytes(step.source.name)} bytes for nothing",
                step=index,
                subject=step.target,
            )


@rule(
    "DM202",
    severity=Severity.WARNING,
    family="inefficiency",
    title="dead operator",
    paper="Section 4 (every operator should feed an output)",
    hint="remove the operator, or mark its result as a program output",
)
def check_dead_operators(inputs: LintInput) -> Iterator[Diagnostic]:
    """Work whose result nothing consumes is wasted compute (and possibly
    wasted communication)."""
    this = _rule("DM202")
    defuse = inputs.defuse
    live_names = set(inputs.program.outputs)
    for instance, made in defuse.producers.items():
        if instance.name not in live_names and instance not in defuse.consumers:
            yield this.diagnostic(
                f"instance {instance} is produced but never consumed",
                step=made[0],
                subject=instance,
            )
    live_scalars = set(inputs.program.scalar_outputs)
    for name, made in defuse.scalar_producers.items():
        if name not in live_scalars and name not in defuse.scalar_consumers:
            yield this.diagnostic(
                f"scalar {name!r} is computed but never consumed",
                step=made[0],
                subject=name,
            )


@rule(
    "DM203",
    severity=Severity.WARNING,
    family="inefficiency",
    title="transpose of transpose",
    paper="Section 4.2.1 (extended operators should be canonical chains)",
    hint="drop both transpose steps and read the original instance",
)
def check_transpose_of_transpose(inputs: LintInput) -> Iterator[Diagnostic]:
    """Two chained local transposes cancel; the second recreates the first
    step's input layout."""
    this = _rule("DM203")
    steps = inputs.plan.steps
    for index, step in enumerate(steps):
        if not isinstance(step, ExtendedStep) or step.kind != "transpose":
            continue
        producer_index = inputs.defuse.first(step.source)
        if producer_index is None:
            continue
        producer = steps[producer_index]
        if (
            isinstance(producer, ExtendedStep)
            and producer.kind == "transpose"
            and producer.source == step.target
        ):
            yield this.diagnostic(
                f"transpose of transpose: {producer.source} -> "
                f"{producer.target} -> {step.target} round-trips to the "
                f"original layout",
                step=index,
                subject=step.target,
            )


@rule(
    "DM204",
    severity=Severity.WARNING,
    family="inefficiency",
    title="CPMM chosen where RMM is strictly cheaper",
    paper="Section 4.1, Equation 1 (strategy choice by communication cost)",
    hint="choose rmm1/rmm2 for this multiplication; its output shuffle "
    "alone outweighs replicating an operand",
)
def check_cpmm_vs_rmm(inputs: LintInput) -> Iterator[Diagnostic]:
    """CPMM's output shuffle costs ``K x |C|`` no matter how its inputs are
    laid out; when even the *worst-case* RMM total (broadcast one operand,
    repartition the other) beats that floor, CPMM can never win."""
    this = _rule("DM204")
    workers = inputs.context.num_workers
    for index, step in enumerate(inputs.plan.steps):
        if not isinstance(step, MatMulStep) or step.strategy != "cpmm":
            continue
        left = inputs.nbytes(step.left.name)
        right = inputs.nbytes(step.right.name)
        out = inputs.nbytes(step.output.name)
        cpmm_floor = workers * out
        rmm_ceiling = min(workers * left + right, workers * right + left)
        if rmm_ceiling < cpmm_floor:
            yield this.diagnostic(
                f"cpmm shuffles at least {cpmm_floor} bytes "
                f"(K x |{step.output.name}|) but replication-based "
                f"multiplication costs at most {rmm_ceiling} here",
                step=index,
                subject=step.output,
            )


@rule(
    "DM205",
    severity=Severity.WARNING,
    family="inefficiency",
    title="re-broadcast of an unchanged matrix",
    paper="Section 4.2.2, Heuristic 1 (replicas are created once)",
    hint="reuse the existing replica (register it and Extract from it) "
    "instead of broadcasting the same version again",
)
def check_rebroadcast(inputs: LintInput) -> Iterator[Diagnostic]:
    """Matrix versions are immutable (SSA): broadcasting the same version
    twice pays ``(K-1) x |A|`` again for bytes every worker already holds."""
    this = _rule("DM205")
    seen: Counter = Counter()
    for index, step in enumerate(inputs.plan.steps):
        if not isinstance(step, ExtendedStep) or step.kind != "broadcast":
            continue
        key = (step.source.name, step.source.transposed)
        seen[key] += 1
        if seen[key] > 1:
            yield this.diagnostic(
                f"{step.source} is broadcast again (occurrence "
                f"{seen[key]}); loop-invariant replicas should be created "
                f"once and reused across iterations",
                step=index,
                subject=step.target,
            )


@rule(
    "DM206",
    severity=Severity.WARNING,
    family="inefficiency",
    title="predicted peak memory exceeds the per-worker budget",
    paper="Section 5.3, Equation 2 (per-worker memory model)",
    hint="pinning more than the budget guarantees the block cache will "
    "spill and recompute; raise cache_limit_bytes / memory_limit_bytes "
    "or reduce the pin set",
)
def check_cache_pin_budget(inputs: LintInput) -> Iterator[Diagnostic]:
    """The serial peak-memory bound of a plan with cache pins must fit the
    declared per-worker budget, or the cache thrashes: every pin is
    resident from its publish to the end of the run, so the sound bound of
    a step is its transient plus every pin not published strictly after it
    in the stage graph (:func:`repro.verify.memory.predict_peak_memory`),
    not the pin shares alone."""
    this = _rule("DM206")
    plan = inputs.plan
    budget = inputs.context.memory_limit_bytes
    if budget is None or not plan.cache_pins:
        return
    prediction = predict_peak_memory(
        plan,
        num_workers=inputs.context.num_workers,
        threads_per_worker=inputs.context.threads_per_worker,
        block_size=inputs.context.block_size,
        max_concurrent_stages=1,
        estimation_mode=inputs.context.estimation_mode,
        graph=inputs.graph,
    )
    if prediction.peak_bytes > budget:
        yield this.diagnostic(
            f"predicted per-worker peak is ~{prediction.peak_bytes} "
            f"bytes (one stage at a time: a step's transient plus every pin "
            f"not published after it; "
            f"pinned working set ~{prediction.pinned_bytes}), above "
            f"the {budget}-byte budget: the cache will spill and recompute "
            f"pins every iteration",
        )


# ---------------------------------------------------------------------------
# Ordering hazards (DM3xx, error severity)
# ---------------------------------------------------------------------------


@rule(
    "DM301",
    severity=Severity.ERROR,
    family="hazard",
    title="read before publish",
    paper="Section 5.2 (stage edges order every publish before its readers)",
    hint="regenerate the stage graph (repro.core.stages.schedule_stages): "
    "every consumer must be reachable from a producer through node "
    "ordering edges",
)
def check_read_before_publish(inputs: LintInput) -> Iterator[Diagnostic]:
    """Every block-instance (and driver-scalar) read must be ordered after
    some publish of it by the stage graph's happens-before relation --
    serial order within a node, transitive ``deps`` edges across nodes.  A
    consumer no producer reaches may observe missing state when nodes run
    concurrently on pool threads."""
    return _hazards_of_kind(_rule("DM301"), inputs, READ_BEFORE_PUBLISH)


@rule(
    "DM302",
    severity=Severity.ERROR,
    family="hazard",
    title="conflicting double publish",
    paper="Section 4.2 (matrix versions are immutable; one publish each)",
    hint="rename one of the producers to a fresh matrix version; the "
    "runtime raises 'produced twice' at whichever publish loses the race",
)
def check_double_publish(inputs: LintInput) -> Iterator[Diagnostic]:
    """Two steps publishing *different* symbolic values for one logical
    matrix race for its blocks.  Re-publications of the identical value
    (a duplicated broadcast, a transpose round-trip) are redundancy, not a
    race, and stay with the DM2xx inefficiency rules."""
    return _hazards_of_kind(_rule("DM302"), inputs, DOUBLE_PUBLISH)


def _hazards_of_kind(this: Rule, inputs: LintInput, kind: str) -> Iterator[Diagnostic]:
    for hazard in inputs.hazards:
        if hazard.kind == kind:
            yield this.diagnostic(
                f"{hazard.subject} is {hazard.detail}",
                step=hazard.step,
                subject=hazard.subject,
            )


# ---------------------------------------------------------------------------
# Fusion lints (DM4xx, warning severity)
# ---------------------------------------------------------------------------


@rule(
    "DM401",
    severity=Severity.WARNING,
    family="fusion",
    title="cellwise chain left unfused",
    paper="Section 5.3 (local execution cost; fused kernels skip "
    "intermediate block grids)",
    hint="drop the intermediate from the program's outputs (or its cache "
    "pin) so the fusion pass can merge the chain into one composed kernel",
)
def check_unfused_chains(inputs: LintInput) -> Iterator[Diagnostic]:
    """An *optimized* plan (one carrying rewrite certificates) still feeds
    a cellwise step straight into a sole cellwise consumer.  The fusion
    pass merges such chains into one :class:`FusedCellwiseStep` unless the
    intermediate is observable -- published as a plan output or cache-
    pinned -- so each hit names the blocker that kept a full intermediate
    block grid alive."""
    this = _rule("DM401")
    plan = inputs.plan
    if not plan.certificates:
        return  # unoptimized plans have not had a chance to fuse yet
    from repro.planopt.fuse import unfused_chain_heads

    index_of = {id(step): index for index, step in enumerate(plan.steps)}
    for producer, consumer, blocker in unfused_chain_heads(plan):
        if blocker == "output":
            why = "its intermediate is published as a plan output"
        elif blocker == "pin":
            why = "its intermediate is cache-pinned"
        else:
            why = "nothing blocks it, yet the fusion pass left it unfused"
        yield this.diagnostic(
            f"cellwise step {producer.output} feeds only the cellwise step "
            f"producing {consumer.output_instance()} but was not fused: {why}",
            step=index_of.get(id(producer)),
            subject=producer.output,
        )
