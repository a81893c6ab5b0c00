"""The DMac plan generator: Algorithm 1 with both heuristics.

Operators are visited in program order.  For each one, the strategy with
minimum communication under the dependency-oriented cost model is chosen
(Equation 1); each of its input events is then *satisfied* by locating the
cheapest existing instance of the operand's logical matrix and emitting the
extended-operator chain that realises the dependency (Table 2 lowering).
Two heuristics fire when an input event still costs communication:

* **Re-assignment** (Heuristic 2): if the cheapest producer's output scheme
  is still flexible -- CPMM output ``r|c``, or a source that can be laid out
  either way -- and nothing has consumed it yet, rebind that scheme to the
  one this event wants.
* **Pull-Up Broadcast** (Heuristic 1): if this event needs a Broadcast of a
  matrix an *earlier* event already paid a repartition for, the earlier
  ``partition`` step is retroactively converted into ``broadcast`` +
  ``extract`` -- the replica is created once, up front, and both events are
  then satisfied from it.

Every satisfied chain's intermediate instances are registered, so a replica
or transpose created for one operator is free for all later ones -- this is
what keeps ``W`` partitioned once per GNMF iteration and ``V`` partitioned
once per program (paper Section 6.5).
"""

from __future__ import annotations

import dataclasses

from repro.core.cost import CostModel, dependency_cost, output_cost
from repro.core.dependency import classify
from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    ScalarComputeStep,
    ScalarMatrixStep,
    SourceStep,
    Step,
    UnaryStep,
)
from repro.core.strategies import Strategy, candidate_strategies
from repro.errors import PlanError
from repro.lang.program import (
    AggregateOp,
    CellwiseOp,
    FullOp,
    LoadOp,
    MatMulOp,
    MatrixProgram,
    Operand,
    RandomOp,
    RowAggOp,
    ScalarComputeOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)
from repro.matrix.schemes import Scheme

_SCHEME_PREFERENCE = (Scheme.ROW, Scheme.COL, Scheme.BROADCAST)


@dataclasses.dataclass
class _InstanceInfo:
    """Planner-side bookkeeping for one materialised matrix instance."""

    producer: Step | None
    flexible: tuple[Scheme, ...] = ()  # alternative schemes still open
    consumers: int = 0


@dataclasses.dataclass
class _InputRecord:
    """One processed input event (the paper's InputSet entry)."""

    name: str
    transposed: bool
    scheme: Scheme
    cost: int
    partition_step: ExtendedStep | None
    converted: bool = False


class DMacPlanner:
    """Generates a communication-efficient plan for a matrix program.

    The SystemML-S baseline (:mod:`repro.baselines.systemml`) is this
    planner with ``_cheapest_cost``, ``_satisfy`` and
    ``_satisfy_any_scheme`` overridden to ignore matrix dependency."""

    def __init__(
        self,
        program: MatrixProgram,
        num_workers: int,
        pull_up_broadcast: bool = True,
        re_assignment: bool = True,
        estimation_mode: str = "worst",
    ) -> None:
        if num_workers < 1:
            raise PlanError(f"num_workers must be >= 1, got {num_workers}")
        self.program = program
        self.num_workers = num_workers
        self.pull_up_broadcast = pull_up_broadcast
        self.re_assignment = re_assignment
        self.cost = CostModel(program, num_workers, estimation_mode)
        self.estimator = self.cost.estimator
        self._steps: list[Step] = []
        self._table: dict[str, dict[MatrixInstance, _InstanceInfo]] = {}
        self._input_set: list[_InputRecord] = []

    # -- public API ---------------------------------------------------------

    def plan(self) -> Plan:
        """Run Algorithm 1 over the whole program.

        Lowering is dispatched through the operator registry: each lang
        operator's :class:`~repro.runtime.registry.OperatorSpec` names the
        planner method (``plan_hook``) that lowers it, so this loop needs
        no per-kind switch and new operators register in one place.

        ``predicted_bytes`` is priced once, over the finished step list
        (:meth:`~repro.core.cost.CostModel.bytes`): the heuristics rewrite
        earlier steps, so only the final list says what will be shipped.
        """
        from repro.runtime.registry import spec_for_op

        for op in self.program.ops:
            spec = spec_for_op(op)
            if spec is None or not spec.plan_hook:
                raise PlanError(f"planner: unknown operator {type(op).__name__}")
            getattr(self, spec.plan_hook)(op)
        return Plan(
            program=self.program,
            steps=self._steps,
            outputs={name: self._readable_instance(name) for name in self.program.outputs},
            predicted_bytes=self.cost.bytes(self._steps),
        )

    # -- per-operator planning ---------------------------------------------------

    def _plan_source(self, op: LoadOp | RandomOp | FullOp) -> None:
        instance = MatrixInstance(op.output, False, Scheme.ROW)
        step = SourceStep(op, instance)
        self._steps.append(step)
        self._register(instance, step, flexible=(Scheme.COL,))

    def _plan_aggregate(self, op: AggregateOp) -> None:
        instance = self._satisfy_any_scheme(op.operand)
        self._steps.append(AggregateStep(op, instance))

    def _plan_scalar_compute(self, op: ScalarComputeOp) -> None:
        self._steps.append(ScalarComputeStep(op))

    def _plan_matmul(self, op: MatMulOp) -> None:
        strategy = self._choose_strategy(op)
        left = self._satisfy(op.left, strategy.input_schemes[0])
        right = self._satisfy(op.right, strategy.input_schemes[1])
        output = MatrixInstance(op.output, False, strategy.primary_output)
        step = MatMulStep(op, strategy.name, left, right, output)
        self._steps.append(step)
        flexible = strategy.output_schemes[1:]
        self._register(output, step, flexible=flexible)

    def _plan_cellwise(self, op: CellwiseOp) -> None:
        strategy = self._choose_strategy(op)
        left = self._satisfy(op.left, strategy.input_schemes[0])
        right = self._satisfy(op.right, strategy.input_schemes[1])
        output = MatrixInstance(op.output, False, strategy.primary_output)
        step = CellwiseStep(op, left, right, output)
        self._steps.append(step)
        self._register(output, step)

    def _plan_scalar_matrix(self, op: ScalarMatrixOp) -> None:
        strategy = self._choose_strategy(op)
        source = self._satisfy(op.operand, strategy.input_schemes[0])
        output = MatrixInstance(op.output, False, strategy.primary_output)
        step = ScalarMatrixStep(op, source, output)
        self._steps.append(step)
        self._register(output, step)

    def _plan_unary(self, op: UnaryMatrixOp) -> None:
        strategy = self._choose_strategy(op)
        source = self._satisfy(op.operand, strategy.input_schemes[0])
        output = MatrixInstance(op.output, False, strategy.primary_output)
        step = UnaryStep(op, source, output)
        self._steps.append(step)
        self._register(output, step)

    def _plan_row_agg(self, op: RowAggOp) -> None:
        strategy = self._choose_strategy(op)
        source = self._satisfy(op.operand, strategy.input_schemes[0])
        output = MatrixInstance(op.output, False, strategy.primary_output)
        step = RowAggStep(op, strategy.name, source, output)
        self._steps.append(step)
        self._register(output, step, flexible=strategy.output_schemes[1:])

    # -- strategy choice (Equation 1) ------------------------------------------------

    def _choose_strategy(self, op) -> Strategy:
        candidates = candidate_strategies(op)
        best: Strategy | None = None
        best_cost = None
        for strategy in candidates:
            cost = output_cost(
                strategy, self.estimator.nbytes(op.output), self.num_workers
            )
            for operand, scheme in zip(op.matrix_inputs(), strategy.input_schemes):
                cost += self._cheapest_cost(operand, scheme)
            if best_cost is None or cost < best_cost:
                best, best_cost = strategy, cost
        assert best is not None
        return best

    def _cheapest_cost(self, operand: Operand, required: Scheme) -> int:
        """Minimum communication to make ``operand`` available in
        ``required``, over all existing instances (and, when allowed, over
        the still-flexible schemes a producer could be re-assigned to)."""
        __, __, cost = self._best_instance(operand, required)
        return cost

    def _best_instance(
        self, operand: Operand, required: Scheme
    ) -> tuple[MatrixInstance, _InstanceInfo, int]:
        instances = self._table.get(operand.name)
        if not instances:
            raise PlanError(f"operand {operand} is used before being produced")
        nbytes = self.estimator.nbytes(operand.name)
        ranked = []
        for instance, info in instances.items():
            cost = self._instance_cost(instance, info, operand, required, nbytes)
            ranked.append((cost, str(instance), instance, info))
        ranked.sort(key=lambda item: (item[0], item[1]))
        cost, __, instance, info = ranked[0]
        return instance, info, cost

    def _instance_cost(
        self,
        instance: MatrixInstance,
        info: _InstanceInfo,
        operand: Operand,
        required: Scheme,
        nbytes: int,
    ) -> int:
        transposed_access = instance.transposed != operand.transposed
        cost = dependency_cost(
            classify(instance.scheme, required, transposed_access),
            nbytes,
            self.num_workers,
        )
        if self.re_assignment and info.flexible and info.consumers == 0:
            for scheme in info.flexible:
                alternative = dependency_cost(
                    classify(scheme, required, transposed_access),
                    nbytes,
                    self.num_workers,
                )
                cost = min(cost, alternative)
        return cost

    # -- input-event satisfaction + heuristics -----------------------------------

    def _satisfy(self, operand: Operand, required: Scheme) -> MatrixInstance:
        """Make ``operand`` available under ``required``; returns the final
        instance the compute step will read."""
        instance, info, cost = self._best_instance(operand, required)
        if self.re_assignment and info.flexible and info.consumers == 0:
            # The selected instance may owe its low cost to a scheme it has
            # not been bound to yet; bind it now so the emitted chain matches
            # the cost the strategy choice was based on.
            instance, info = self._try_reassign(operand, required, instance, info)
            cost = self._instance_cost(
                instance, info, operand, required, self.estimator.nbytes(operand.name)
            )
        if cost > 0 and required is Scheme.BROADCAST and self.pull_up_broadcast:
            if self._try_pull_up(operand.name):
                instance, info, cost = self._best_instance(operand, required)
        return self._emit_chain(operand, required, instance, info, cost)

    def _try_reassign(
        self,
        operand: Operand,
        required: Scheme,
        instance: MatrixInstance,
        info: _InstanceInfo,
    ) -> tuple[MatrixInstance, _InstanceInfo]:
        """Heuristic 2: rebind a still-flexible producer output scheme."""
        if not info.flexible or info.consumers > 0:
            return instance, info
        nbytes = self.estimator.nbytes(operand.name)
        transposed_access = instance.transposed != operand.transposed
        options = (instance.scheme,) + info.flexible
        best_scheme = min(
            enumerate(options),
            key=lambda item: (
                dependency_cost(
                    classify(item[1], required, transposed_access),
                    nbytes,
                    self.num_workers,
                ),
                item[0],  # keep the current binding on ties
            ),
        )[1]
        if best_scheme is instance.scheme:
            return instance, info
        new_instance = instance.with_scheme(best_scheme)
        producer = info.producer
        if isinstance(producer, (SourceStep, MatMulStep, RowAggStep)):
            producer.output = new_instance
        new_info = _InstanceInfo(producer=producer, flexible=(), consumers=0)
        del self._table[instance.name][instance]
        self._table[instance.name][new_instance] = new_info
        return new_instance, new_info

    def _try_pull_up(self, name: str) -> bool:
        """Heuristic 1: convert an earlier paid repartition of ``name`` into
        broadcast + extract so the replica serves both events."""
        for record in reversed(self._input_set):
            if (
                record.name == name
                and record.cost > 0
                and record.scheme.is_one_dimensional
                and record.partition_step is not None
                and not record.converted
            ):
                return self._apply_pull_up(record)
        return False

    def _apply_pull_up(self, record: _InputRecord) -> bool:
        partition_step = record.partition_step
        assert partition_step is not None
        replica = MatrixInstance(
            partition_step.source.name, partition_step.source.transposed, Scheme.BROADCAST
        )
        if replica in self._table.get(replica.name, {}):
            return False  # a replica already exists; nothing to pull up
        broadcast_step = ExtendedStep("broadcast", partition_step.source, replica)
        extract_step = ExtendedStep("extract", replica, partition_step.target)
        index = self._steps.index(partition_step)
        self._steps[index] = broadcast_step
        self._steps.insert(index + 1, extract_step)
        self._register(replica, broadcast_step)
        target_info = self._table[partition_step.target.name][partition_step.target]
        target_info.producer = extract_step
        record.converted = True
        return True

    def _emit_chain(
        self,
        operand: Operand,
        required: Scheme,
        instance: MatrixInstance,
        info: _InstanceInfo,
        cost: int,
    ) -> MatrixInstance:
        """Lower the dependency from ``instance`` to the required layout,
        materialising (and registering) each intermediate instance."""
        info.consumers += 1
        name, target_transposed = operand.name, operand.transposed
        partition_step: ExtendedStep | None = None
        current = instance
        for kind, target in _lowering_targets(
            current, name, target_transposed, required
        ):
            existing = self._table.get(name, {}).get(target)
            if existing is not None:
                existing.consumers += 1
                current = target
                continue
            step = ExtendedStep(kind, current, target)
            self._steps.append(step)
            self._register(target, step)
            if kind == "partition":
                partition_step = step
            current = target
        self._input_set.append(
            _InputRecord(name, target_transposed, required, cost, partition_step)
        )
        return current

    def _satisfy_any_scheme(self, operand: Operand) -> MatrixInstance:
        """For aggregations: any scheme works, so take the cheapest."""
        best_required = min(
            _SCHEME_PREFERENCE,
            key=lambda scheme: (self._cheapest_cost(operand, scheme), scheme.value),
        )
        return self._satisfy(operand, best_required)

    # -- bookkeeping ------------------------------------------------------------

    def _register(
        self,
        instance: MatrixInstance,
        producer: Step,
        flexible: tuple[Scheme, ...] = (),
    ) -> None:
        by_name = self._table.setdefault(instance.name, {})
        if instance in by_name:
            raise PlanError(f"instance {instance} registered twice")
        by_name[instance] = _InstanceInfo(producer=producer, flexible=tuple(flexible))

    def _readable_instance(self, name: str) -> MatrixInstance:
        instances = self._table.get(name)
        if not instances:
            raise PlanError(f"program output {name!r} was never materialised")
        ranked = sorted(
            instances,
            key=lambda inst: (inst.transposed, _SCHEME_PREFERENCE.index(inst.scheme)),
        )
        return ranked[0]


def _lowering_targets(
    instance: MatrixInstance,
    name: str,
    target_transposed: bool,
    required: Scheme,
) -> list[tuple[str, MatrixInstance]]:
    """The concrete extended-operator chain from ``instance`` to the
    instance ``(name, target_transposed, required)`` (Table 2 lowering)."""
    transposed_access = instance.transposed != target_transposed
    final = MatrixInstance(name, target_transposed, required)
    if not transposed_access:
        if instance.scheme is required:
            return []
        if instance.scheme is Scheme.BROADCAST:
            return [("extract", final)]
        if required is Scheme.BROADCAST:
            return [("broadcast", final)]
        return [("partition", final)]
    # Transposed access: a free local transpose flips Row<->Column (and
    # keeps Broadcast); any residual scheme mismatch is handled after it.
    middle = MatrixInstance(name, target_transposed, instance.scheme.opposite)
    if instance.scheme is Scheme.BROADCAST:
        if required is Scheme.BROADCAST:
            return [("transpose", final)]
        # Extract-Transpose: pull the complementary 1-D slice, then flip.
        extracted = MatrixInstance(name, instance.transposed, required.opposite)
        return [("extract", extracted), ("transpose", final)]
    if middle.scheme is required:
        return [("transpose", final)]
    if required is Scheme.BROADCAST:
        return [("transpose", middle), ("broadcast", final)]
    return [("transpose", middle), ("partition", final)]
