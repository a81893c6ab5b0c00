"""Repartition coalescing: scheme-flip rewrites that shed conversions.

The planner lowers one operator at a time, so a value is often produced in
one scheme and immediately repartitioned into another (``A -> Row ->
Column``) -- or shuffled every iteration when producing it in the
consumer's scheme directly would have been free.  This pass searches for
such rewrites with an *apply-and-evaluate* loop:

* enumerate candidates -- flip a 1-D element-wise step to the opposite
  scheme, make a ``partition`` step's producer emit the target scheme
  natively, or merge a back-to-back conversion chain into one hop;
* apply each candidate to the plan itself, through its :class:`PlanIndex`
  and under an index *trial* that undoes it again (a cascade costs what it
  touches, not a clone).  A flip *cascades*: the flipped step demands its
  inputs in the new scheme (satisfied by flipping flexible producers --
  sources, element-wise steps, rmm1<->rmm2, CPMM/row-agg output rebinds --
  or by an explicit conversion chain), and
  every consumer of the old output is either re-derived from the new one,
  cascade-flipped (element-wise), or fed through a chain back to the old
  scheme.  Aggregations are always chained back: re-ordering their driver
  reduction would change floating-point summation order;
* price it inside the trial -- merge the duplicates and find the dead
  steps the cascade left, read ``(predicted_bytes, step_count)`` off the
  :meth:`~repro.core.cost.CostModel.comm_bytes` of the steps gone and new;
* sort the round's candidates by ``(price, enumeration order)`` and build
  only the head: fork, re-sort, CSE, DCE and re-price the cheapest one
  below the plan's own price, then the next, until one orders (no
  :class:`PlanError`) and does not lose under the other sparsity model.
  The tuple strictly decreases: never costlier under the model.

Value-safety: every rewrite used here re-binds *where* blocks live, never
the per-block arithmetic or its order, so outputs stay byte-identical
(property-tested in ``tests/planopt/test_equivalence.py``).
"""

from __future__ import annotations

import collections

from repro.core.cost import CostModel
from repro.core.plan import (
    CellwiseStep,
    ExtendedStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    ScalarMatrixStep,
    SourceStep,
    Step,
    UnaryStep,
)
from repro.core.planner import _lowering_targets
from repro.errors import PlanError
from repro.matrix.schemes import Scheme
from repro.planopt.common import AppliedRewrite
from repro.planopt.cse import eliminate_common_steps, merge_touched_duplicate
from repro.planopt.dce import dead_among, dead_steps, eliminate_dead_steps
from repro.planopt.index import PlanIndex

#: Element-wise step kinds: scheme-agnostic per-block arithmetic, so their
#: output scheme may be flipped freely (inputs follow).
ELEMENTWISE = (CellwiseStep, ScalarMatrixStep, UnaryStep)

#: Cap on accepted rewrite rounds (each strictly reduces the cost tuple,
#: so this only guards against pathological plans).
MAX_ROUNDS = 8


def _flippable(step: Step, required: Scheme) -> bool:
    """Whether ``step`` can be rewritten to produce its output under
    ``required`` (a different one-dimensional scheme) for free."""
    output = step.output_instance()
    if output is None or output.scheme is required:
        return False
    if not required.is_one_dimensional:
        return False
    if isinstance(step, (SourceStep, *ELEMENTWISE)):
        return output.scheme.is_one_dimensional  # Row-or-Column for free
    if isinstance(step, MatMulStep):
        return step.strategy in ("rmm1", "rmm2", "cpmm")
    if isinstance(step, RowAggStep):
        return step.strategy.endswith("-opposed")  # flexible output
    return False


class _FlipSession:
    """One candidate application: tracks flipped steps and emits chains.

    Works through a :class:`PlanIndex` only -- every query is a map lookup
    and every edit one of the index's three mutations, so a cascade costs
    what it touches and the index's trial can undo it.
    """

    def __init__(self, index: PlanIndex) -> None:
        self.index = index
        self.outputs = index.plan.outputs  # a trial's own copy
        self._done: set[int] = set()  # handles of steps already rewritten
        self._demanding: set[MatrixInstance] = set()  # recursion guard

    # -- demand: make sure an instance exists -------------------------------

    def demand(self, instance: MatrixInstance) -> None:
        """Ensure some step produces ``instance``, preferring free producer
        flips over explicit conversion chains."""
        index = self.index
        if index.producer(instance) is not None:
            return
        if instance in self._demanding:
            self._chain_to(instance)  # cycle: break it with a conversion
            return
        self._demanding.add(instance)
        try:
            if instance.scheme.is_one_dimensional:
                for sibling in index.siblings(instance):
                    producer = index.producer(sibling)
                    if producer is not None and self._can_flip(
                        producer, instance.scheme
                    ):
                        self._flip(producer, instance.scheme)
                        if index.producer(instance) is not None:
                            return
            self._chain_to(instance)
        finally:
            self._demanding.discard(instance)

    def _chain_to(self, instance: MatrixInstance) -> None:
        siblings = self.index.siblings(instance)
        if not siblings:
            raise PlanError(f"cannot satisfy demand for {instance}: "
                            f"nothing produces {instance.name}")

        def chain_cost(sibling: MatrixInstance) -> tuple[int, int]:
            chain = _lowering_targets(
                sibling, instance.name, instance.transposed, instance.scheme
            )
            comm = sum(1 for kind, __ in chain if kind in ("partition", "broadcast"))
            return (comm, len(chain))

        best = min(siblings, key=chain_cost)
        self.emit_chain(best, instance)

    def emit_chain(self, source: MatrixInstance, target: MatrixInstance) -> None:
        """Append the extended-operator chain ``source -> ... -> target``,
        reusing any hop some step already produces."""
        chain = _lowering_targets(
            source, target.name, target.transposed, target.scheme
        )
        current = source
        for kind, hop in chain:
            if self.index.producer(hop) is None:
                self.index.append(ExtendedStep(kind=kind, source=current, target=hop))
            current = hop

    # -- flips --------------------------------------------------------------

    def _can_flip(self, step: Step, required: Scheme) -> bool:
        done = self.index.handle(step) in self._done
        return not done and _flippable(step, required)

    def _flip(self, step: Step, required: Scheme) -> None:
        """Rewrite ``step`` to produce its output under ``required``."""
        index = self.index
        handle = index.handle(step)
        if handle in self._done:
            return
        self._done.add(handle)
        old = step.output_instance()
        new = old.with_scheme(required)
        if isinstance(step, ELEMENTWISE):
            fields = {"output": new}
            for field in ("left", "right", "source"):
                value = getattr(step, field, None)
                if isinstance(value, MatrixInstance):
                    want = value.with_scheme(required)
                    self.demand(want)
                    fields[field] = want
            index.rebind(step, **fields)
        elif isinstance(step, MatMulStep) and step.strategy != "cpmm":
            # rmm1: A(b) @ B(c) -> C(c)  <->  rmm2: A(r) @ B(b) -> C(r).
            # Both fold per output block over the same per-block sequence,
            # so the swap is bit-identical; only operand layouts change.
            if required is Scheme.ROW:
                strategy, schemes = "rmm2", (Scheme.ROW, Scheme.BROADCAST)
            else:
                strategy, schemes = "rmm1", (Scheme.BROADCAST, Scheme.COL)
            left = step.left.with_scheme(schemes[0])
            right = step.right.with_scheme(schemes[1])
            self.demand(left)
            self.demand(right)
            index.rebind(step, strategy=strategy, left=left, right=right, output=new)
        elif isinstance(step, (SourceStep, MatMulStep, RowAggStep)):
            # Sources are Row-or-Column for free; CPMM's shuffled output and
            # an "-opposed" aggregation's shuffled partials are flexible.
            index.rebind(step, output=new)
        else:  # pragma: no cover - guarded by _can_flip
            raise PlanError(f"cannot flip {step}")
        self._replace_output(old, new)

    def _replace_output(self, old: MatrixInstance, new: MatrixInstance) -> None:
        """Rewire everything that read ``old`` now that only ``new`` exists."""
        index = self.index
        for name, instance in self.outputs.items():
            if instance == old:
                self.outputs[name] = new
        consumers = [
            step
            for step in index.consumers(old)
            if index.handle(step) not in self._done
        ]
        for consumer in consumers:
            if isinstance(consumer, ExtendedStep):
                # Re-derive the conversion from the new layout; if the
                # conversion's whole purpose was producing `new`, drop it.
                self._done.add(index.handle(consumer))
                index.remove(consumer)
                if consumer.target != new:
                    self.emit_chain(new, consumer.target)
            elif (
                isinstance(consumer, ELEMENTWISE)
                and new.scheme.is_one_dimensional
                and self._can_flip(consumer, new.scheme)
            ):
                self._flip(consumer, new.scheme)  # cascade
            else:
                # Chain back: aggregations (driver reduction order is
                # float-sensitive) and rigid operands keep reading `old`,
                # now re-derived from `new`.
                self.emit_chain(new, old)


# -- candidate enumeration ----------------------------------------------------


def _candidates(index: PlanIndex) -> list[tuple]:
    """``("flip", step, scheme, description)`` and ``("merge", step,
    producer, description)`` rewrites to try, in step order.  Making a
    ``partition``'s producer emit the target scheme natively *is* a flip
    of that producer, and a flip is fully determined by its root (step,
    scheme): each root is enumerated once, under the first description."""
    found: list[tuple] = []
    roots: set[tuple[int, Scheme]] = set()

    def flip(step: Step, scheme: Scheme, description: str) -> None:
        root = (index.handle(step), scheme)
        if root not in roots:
            roots.add(root)
            found.append(("flip", step, scheme, description))

    for step in index.steps():
        output = step.output_instance()
        if (
            isinstance(step, ELEMENTWISE)
            and output is not None
            and output.scheme.is_one_dimensional
        ):
            scheme = output.scheme.opposite
            flip(step, scheme, f"flipped {step} to scheme {scheme}")
        if isinstance(step, ExtendedStep):
            producer = index.producer(step.source)
            if (
                step.kind == "partition"
                and producer is not None
                and _flippable(producer, step.target.scheme)
            ):
                flip(
                    producer,
                    step.target.scheme,
                    f"produced {step.target} natively instead of repartitioning",
                )
            if isinstance(producer, ExtendedStep):
                found.append((
                    "merge",
                    step,
                    producer,
                    f"coalesced {producer} ; {step} into a direct conversion",
                ))
    return found


def _apply_candidate(session: _FlipSession, candidate: tuple) -> None:
    """Rewrite the session's plan by one candidate."""
    kind, step, argument, __ = candidate
    if kind == "flip":
        session._flip(step, argument)
    else:  # merge: drop the second hop, convert from the first hop's source
        session.index.remove(step)
        session.emit_chain(argument.source, step.target)


def _price(
    index: PlanIndex, candidate: tuple, cost: CostModel, rows: dict[int, int], garbage: set[int]
) -> tuple[int, int]:
    """``(predicted bytes, step count)`` of the plan :func:`_build` makes of
    a candidate, read off a trial: apply it, merge the duplicates, find the
    dead steps (among what it touched and the ``garbage`` handles the plan
    came with), then take the plan's ``rows`` (handle -> bytes, summing to
    ``plan.predicted_bytes``) less the steps gone, plus the new."""
    with index.trial():
        _apply_candidate(_FlipSession(index), candidate)
        handles, released = index.touched()
        while merge_touched_duplicate(index, handles):
            handles, released = index.touched()
        live = {h: step for h in handles | garbage if (step := index.get(h)) is not None}
        suspects = list(live.values())
        for instance in released:
            suspects.extend(index.producers(instance))
        dead = dead_among(index, suspects, garbage)
        gone = sum(rows[h] for h in (handles | dead) & rows.keys())
        new = sum(cost.comm_bytes(live[h]) for h in handles & live.keys() - dead)
        return index.plan.predicted_bytes - gone + new, len(index) - len(dead)


def _build(index: PlanIndex, candidate: tuple, cost: CostModel) -> PlanIndex:
    """The plan a candidate leaves: a fork, CSE'd, DCE'd, sorted and priced."""
    with index.trial():
        _apply_candidate(_FlipSession(index), candidate)
        fork = index.fork()
    index.counters["candidates_forked"] += 1
    eliminate_common_steps(fork.plan, fork)
    eliminate_dead_steps(fork.plan, fork)
    fork.toposort()
    fork.plan.predicted_bytes = cost.bytes(fork.plan.steps)
    return fork


def _diff(before: Plan, after: Plan) -> tuple[tuple[str, ...], tuple[str, ...]]:
    old = collections.Counter(str(step) for step in before.steps)
    new = collections.Counter(str(step) for step in after.steps)
    removed = tuple(sorted((old - new).elements()))
    added = tuple(sorted((new - old).elements()))
    return removed, added


def coalesce_repartitions(
    plan: Plan,
    *,
    cost: CostModel,
    cross_cost: CostModel,
    index: PlanIndex | None = None,
) -> list[AppliedRewrite]:
    """Greedy best-first coalescing on ``plan`` (mutated in place).

    ``cost`` prices the plan's program under the planning mode,
    ``cross_cost`` under the opposite sparsity model: a candidate must win
    under the first *without* losing under the second -- worst-case and
    average-case disagree on matmul-output sizes, and a rewrite that only
    wins in one model can regress the measured ledger on real data.
    """
    index = index or PlanIndex(plan)
    rewrites: list[AppliedRewrite] = []
    search = ("coalesce", cost.num_workers, cost.estimator.mode)
    if index.fixpoints.get(search) == index.version:
        return rewrites  # nothing mutated since this search found nothing
    for __ in range(MAX_ROUNDS):
        rows = {index.handle(step): cost.comm_bytes(step) for step in plan.steps}
        plan.predicted_bytes = sum(rows.values())
        base_cost = (plan.predicted_bytes, len(plan.steps))
        base_other = cross_cost.bytes(plan.steps)
        garbage = {index.handle(s) for s in dead_steps(index)}
        candidates = _candidates(index)
        index.counters["candidates_enumerated"] += len(candidates)
        priced = []
        for order, candidate in enumerate(candidates):
            try:
                price = _price(index, candidate, cost, rows, garbage)
            except PlanError:
                continue  # the cascade itself found no valid plan
            if price < base_cost:
                priced.append((price, order))
        for __, order in sorted(priced):  # cheapest first, then first found
            try:
                fork = _build(index, candidates[order], cost)
            except PlanError:
                continue  # candidate does not yield a valid plan
            clone = fork.plan
            price = (clone.predicted_bytes, len(clone.steps))
            if price < base_cost and cross_cost.bytes(clone.steps) <= base_other:
                break
        else:
            index.fixpoints[search] = index.version
            return rewrites
        removed, added = _diff(plan, clone)
        rewrites.append(AppliedRewrite(
            "coalesce",
            f"{candidates[order][3]} "
            f"(predicted bytes {plan.predicted_bytes} -> {clone.predicted_bytes})",
            removed=removed,
            added=added,
        ))
        index.adopt(fork)
        index.counters["candidates_accepted"] += 1
    return rewrites
