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

A round prices each symmetric flip class once.  Lanczos's vector recurrence
ties every iteration of svd into one element-wise flip component, so about
30 of its roots would re-run one cross-iteration cascade.  A flip root that
an earlier candidate's *clean* trial already flipped to the same scheme
through *symmetric* links is skipped:

* a flip is *symmetric* when the cascade rooted at it would walk back: the
  root; an element-wise consumer cascaded from a symmetric flip whose new
  output the round's base plan did not produce (else that consumer's own
  demand is met as it stands); the direct producer of a symmetric
  element-wise step's operand, flipped on demand (the demanded layout's
  sibling *is* the operand).  Not symmetric: an rmm1<->rmm2 flip's demands,
  a flip reached through another layout (a conversion's source), and any
  flip after a demand cycle was broken by a conversion chain;
* a trial is *clean* when no step it touched reads an instance nothing
  produces and no conversion it appended duplicates another producer's
  output.  A trial of the first kind is *dangling*: the build's toposort
  refuses it, so pricing drops it as refused -- and so is a trial whose
  conversions close a dependency cycle (a demand cycle's chain beside the
  flip that later produces the same layout, a merge's chain through a hop
  derived from its own target).

**Dominance lemma:** a covered root prices at or above its coverer, or its
build is refused.  Sketch: every symmetric link is walked both ways, so the
covered root's cascade reaches the coverer's root through the same links
and flips its whole symmetric class, ending in the same steps.  It can only
differ by what the order of the walk decides -- a demand met by an
instance the base plan or an earlier chain already produced, a chain back
appended where the coverer cascaded -- and the exclusions above are the
ways a reversed walk could stop short of the coverer; past them a
difference adds conversions or leaves a reader dangling, never removes one.
The coverer precedes it in enumeration order, so it also wins a tie: a
covered root is the head only if its coverer's build is refused, and then
it is priced before the next head is built.  The lemma is checked, not
assumed: ``tests/planopt/test_coalesce_skip.py`` prices every covered root
of every round of the registry sweep against its coverer, and runs a paired
oracle (skip on / off) over random programs.

Before a round prices a candidate it asks :class:`_Futility`, a
certificate read off the :class:`PlanIndex` alone, whether the trial can
price below the round's base at all; a certified candidate is skipped like
a covered one and can never become a head.  A merge is bounded by its two
hops and the direct chain; a flip by its *flip class* -- the closure of
its root under the cascade's links -- once per class: a partition the
cascade can drop must be paid for by a conversion back that the demands
upstream of it force.  On svd the whole second round (the flips that undo
the first round's cascade and the merges of ``broadcast ; transpose``) is
certified by one walk of its one class.  **Futility lemma:** a certified
candidate prices at or above its round's base, or is refused; checked, not
assumed, by pricing every certified candidate of the registry sweep.

Value-safety: every rewrite used here re-binds *where* blocks live, never
the per-block arithmetic or its order, so outputs stay byte-identical
(property-tested in ``tests/planopt/test_equivalence.py``).
"""

from __future__ import annotations

import collections
import heapq
from collections.abc import Set

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
from repro.planopt.structural import step_structural_key

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


def _operands(step: Step) -> list[tuple[str, MatrixInstance]]:
    """``(field, instance)`` of each matrix operand of a step: what an
    element-wise flip demands in its new scheme."""
    fields = ((field, getattr(step, field, None)) for field in ("left", "right", "source"))
    return [(field, value) for field, value in fields if isinstance(value, MatrixInstance)]


class _FlipSession:
    """One candidate application: tracks flipped steps and emits chains.

    Works through a :class:`PlanIndex` only -- every query is a map lookup
    and every edit one of the index's three mutations, so a cascade costs
    what it touches and the index's trial can undo it.  ``produced`` is
    what the round's base plan produces; it decides which cascade links
    are symmetric.
    """

    def __init__(
        self, index: PlanIndex, produced: Set[MatrixInstance] = frozenset()
    ) -> None:
        self.index = index
        self.outputs = index.plan.outputs  # a trial's own copy
        self._done: set[int] = set()  # handles of steps already rewritten
        self._demanding: set[MatrixInstance] = set()  # recursion guard
        self._produced = produced
        self._cycle_broken = False  # a demand cycle was chained: no symmetry
        #: The roots ``(handle, scheme)`` this cascade flipped through
        #: symmetric links only: a trial rooted at one walks back to this.
        self.symmetric: set[tuple[int, Scheme]] = set()

    # -- demand: make sure an instance exists -------------------------------

    def demand(
        self, instance: MatrixInstance, operand: MatrixInstance | None = None
    ) -> None:
        """Ensure some step produces ``instance``, preferring free producer
        flips over explicit conversion chains.  ``operand`` is the operand
        of a symmetric element-wise flip this demand serves: flipping its
        own producer is a symmetric link."""
        index = self.index
        if index.producer(instance) is not None:
            return
        if instance in self._demanding:
            self._chain_to(instance)  # cycle: break it with a conversion
            self._cycle_broken = True
            return
        self._demanding.add(instance)
        try:
            if instance.scheme.is_one_dimensional:
                for sibling in index.siblings(instance):
                    producer = index.producer(sibling)
                    if producer is not None and self._can_flip(
                        producer, instance.scheme
                    ):
                        self._flip(producer, instance.scheme, sibling == operand)
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

    def _flip(self, step: Step, required: Scheme, symmetric: bool = False) -> None:
        """Rewrite ``step`` to produce its output under ``required``;
        ``symmetric`` if it is the root or reached over a symmetric link."""
        index = self.index
        handle = index.handle(step)
        if handle in self._done:
            return
        self._done.add(handle)
        symmetric = symmetric and not self._cycle_broken
        if symmetric:
            self.symmetric.add((handle, required))
        old = step.output_instance()
        new = old.with_scheme(required)
        if isinstance(step, ELEMENTWISE):
            fields = {"output": new}
            for field, value in _operands(step):
                want = value.with_scheme(required)
                self.demand(want, value if symmetric else None)
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
        self._replace_output(old, new, symmetric and new not in self._produced)

    def _replace_output(
        self, old: MatrixInstance, new: MatrixInstance, symmetric: bool = False
    ) -> None:
        """Rewire everything that read ``old`` now that only ``new`` exists;
        ``symmetric`` if a cascaded consumer's own flip would walk back."""
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
                self._flip(consumer, new.scheme, symmetric)  # cascade
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
        session._flip(step, argument, symmetric=True)
    else:  # merge: drop the second hop, convert from the first hop's source
        session.index.remove(step)
        session.emit_chain(argument.source, step.target)


def _root(index: PlanIndex, candidate: tuple) -> tuple[int, Scheme] | None:
    """A flip candidate's root ``(handle, scheme)``; a merge has none."""
    kind, step, argument, __ = candidate
    return (index.handle(step), argument) if kind == "flip" else None


def _covers(
    index: PlanIndex, session: _FlipSession, handles: Set[int]
) -> Set[tuple[int, Scheme]]:
    """The roots whose trials price at or above this one's (the dominance
    lemma): its symmetric flips, if the cascade touching ``handles`` is
    clean -- no conversion it appended duplicates another producer's
    output (a dangling cascade never gets here)."""
    for handle in handles:
        step = index.get(handle)
        if isinstance(step, ExtendedStep) and len(index.producers(step.target)) > 1:
            return frozenset()
    return session.symmetric


def _relaid(value: object, scheme: Scheme) -> object:
    """One entry of a structural key after an element-wise flip to ``scheme``."""
    if isinstance(value, MatrixInstance):
        return value.with_scheme(scheme)
    return scheme if isinstance(value, Scheme) else value


class _Futility:
    """A round's futility certificate: candidates whose trials cannot price
    below the round's base, proved from the :class:`PlanIndex` alone.

    A trial's bytes move only where steps go or come: a conversion the
    cascade drops or appends, a step that dies, the round's garbage (a
    rebound step books what it booked).  So a price is at least the base
    less every removal it could make plus every step it must append.

    * **A merge** removes its second hop and appends the direct chain's
      missing hops; its first hop dies only when nothing else reads it.
    * **A flip class** is the closure of a root under the cascade's links
      -- the producers its element-wise steps' demands flip (a demanded
      layout the base plan lacks) and the element-wise readers of every
      flipped output.  Any root in the class cascades through a closed
      subset of it.  There, each partition that converts a flipped output
      into its new layout can go; each flipped output a rigid reader keeps
      reading must come back as one partition.  A re-derived conversion
      ends in a hop at least as dear, so it saves nothing.  The class is
      certified when every such partition is matched to its own
      come-back, of at least its bytes, forced by the demands upstream of
      the partition's producer: any closed subset that drops a partition
      then also pays its match.  Garbage, a step that could die, a flip
      that could make a CSE twin, a second producer and an rmm1<->rmm2
      flip (its demands change layouts) void a class.

    **Futility lemma:** a certified candidate prices at or above its
    round's ``(bytes, steps)`` base, or its trial is refused.  It is
    checked, not assumed: ``tests/planopt/test_coalesce_skip.py`` prices
    every certified candidate of the registry sweep in full.
    """

    def __init__(
        self, index: PlanIndex, cost: CostModel, rows: dict[int, int], garbage: set[int]
    ) -> None:
        self.index, self.cost, self.rows = index, cost, rows
        self.garbage = garbage
        self.garbage_cost = (sum(rows[h] for h in garbage), len(garbage))
        self.roots: dict[tuple[int, Scheme], bool] = {}  # flip root -> certified

    def futile(self, candidate: tuple) -> bool:
        kind, step, argument, __ = candidate
        if kind == "merge":
            return self._merge(step, argument)
        root = (self.index.handle(step), argument)
        if root not in self.roots:
            members, certified = self._flip_class(step, argument)
            for handle in members:
                self.roots.setdefault((handle, argument), certified)
        return self.roots[root]

    def _bound(self, added: int, steps: int) -> bool:
        """Whether a trial adding at least ``(added, steps)`` over what it
        removes besides the garbage cannot price below the base."""
        garbage_bytes, garbage_steps = self.garbage_cost
        return (added - garbage_bytes, steps - garbage_steps) >= (0, 0)

    def _hop(self, source: MatrixInstance, target: MatrixInstance) -> tuple[str, int]:
        """The last hop of the chain ``source -> target`` and its bytes."""
        kind, hop = _lowering_targets(
            source, target.name, target.transposed, target.scheme
        )[-1]
        return kind, self.cost.comm_bytes(ExtendedStep(kind=kind, source=source, target=hop))

    def _merge(self, step: ExtendedStep, first: ExtendedStep) -> bool:
        index, rows = self.index, self.rows
        if index.handle(step) in self.garbage:
            return False
        target, middle = step.target, first.target
        added = steps = 0
        read = set()
        current = first.source
        for kind, hop in _lowering_targets(
            current, target.name, target.transposed, target.scheme
        ):
            producers = index.producers(hop)
            if not producers or (len(producers) == 1 and producers[0] is step):
                added += self.cost.comm_bytes(ExtendedStep(kind=kind, source=current, target=hop))
                steps += 1
                read.add(current)
            current = hop
        added -= rows[index.handle(step)]
        steps -= 1
        if (
            middle not in index.plan.outputs.values()
            and middle not in read
            and all(
                reader is step or index.handle(reader) in self.garbage
                for reader in index.consumers(middle)
            )
        ):  # the first hop dies with the second
            if first.source not in read:
                return False  # and what fed it may die too
            added -= rows[index.handle(first)]
            steps -= 1
        return self._bound(added, steps)

    def _flip_class(self, root: Step, scheme: Scheme) -> tuple[set[int], bool]:
        """The handles of ``root``'s flip class to ``scheme`` (as far as it
        was walked) and whether the class is certified."""
        index = self.index
        if self.garbage:
            return {index.handle(root)}, False
        members: dict[int, Step] = {}
        demands: dict[int, list[int]] = {}
        pending: list[Step] = []
        rmm = False  # an rmm1<->rmm2 flip's demands change layouts: unbounded

        def join(step: Step) -> int:
            nonlocal rmm
            handle = index.handle(step)
            if handle not in members:
                members[handle] = step
                pending.append(step)
                rmm = rmm or isinstance(step, MatMulStep) and step.strategy != "cpmm"
            return handle

        join(root)
        while pending and not rmm:
            step = pending.pop()
            flipped = demands[index.handle(step)] = []
            if isinstance(step, ELEMENTWISE):
                for __, operand in _operands(step):
                    want = operand.with_scheme(scheme)
                    if index.producer(want) is not None:
                        continue
                    for sibling in index.siblings(want):
                        producer = index.producer(sibling)
                        if _flippable(producer, scheme):
                            flipped.append(join(producer))
                            break
            for reader in index.consumers(step.output_instance()):
                if isinstance(reader, ELEMENTWISE) and _flippable(reader, scheme):
                    join(reader)
        return set(members), not rmm and self._matched(members, demands, scheme)

    def _matched(
        self, members: dict[int, Step], demands: dict[int, list[int]], scheme: Scheme
    ) -> bool:
        index, rows = self.index, self.rows
        roots = set(index.plan.outputs.values())
        removals: list[tuple[int, int]] = []  # (producer handle, bytes)
        returns: dict[int, int] = {}  # member handle -> its come-back's bytes
        keys: set[tuple] = set()
        for handle, step in members.items():
            old = step.output_instance()
            new = old.with_scheme(scheme)
            producers = index.producers(old)
            if len(producers) != 1 or producers[0] is not step:
                return False
            for producer in index.producers(new):
                if not (isinstance(producer, ExtendedStep) and producer.source == old):
                    return False  # a second producer once flipped
            for reader in index.consumers(old):
                if index.handle(reader) in members:
                    continue
                if not isinstance(reader, ExtendedStep):
                    returns[handle] = self._hop(new, old)[1]
                elif reader.target == new:
                    removals.append((handle, rows[index.handle(reader)]))
                elif (
                    len(index.producers(reader.target)) > 1
                    or self._hop(new, reader.target)[1] < rows[index.handle(reader)]
                ):
                    return False
            elementwise = isinstance(step, ELEMENTWISE)
            key = step_structural_key(step)
            if key is not None:
                if elementwise:
                    key = tuple(_relaid(value, scheme) for value in key)
                    first = step.inputs()[0].with_scheme(scheme)
                else:
                    key, first = (*key[:-1], scheme), step.inputs()[0]
                if key in keys:
                    return False
                keys.add(key)
                for reader in index.consumers(first):
                    if (
                        index.handle(reader) not in members
                        and step_structural_key(reader) == key
                    ):
                        return False  # a CSE twin once flipped
            for __, operand in _operands(step) if elementwise else ():
                producer = index.producer(operand)
                if producer is None or (
                    index.handle(producer) not in members
                    and operand not in roots
                    and all(
                        index.handle(reader) in members
                        and isinstance(reader, ELEMENTWISE)
                        for reader in index.consumers(operand)
                    )
                ):
                    return False  # its producer could die
        owner: dict[int, int] = {}  # come-back -> the removal it pays for
        forced: dict[int, list[int]] = {}  # producer -> come-backs upstream

        def options(producer: int) -> list[int]:
            if producer not in forced:
                found, stack = set(), [producer]
                while stack:
                    member = stack.pop()
                    if member not in found:
                        found.add(member)
                        stack.extend(demands[member])
                forced[producer] = sorted(found & returns.keys())
            return forced[producer]

        def assign(item: int, seen: set[int]) -> bool:
            producer, nbytes = removals[item]
            for come_back in options(producer):
                if come_back in seen or returns[come_back] < nbytes:
                    continue
                seen.add(come_back)
                if come_back not in owner or assign(owner[come_back], seen):
                    owner[come_back] = item
                    return True
            return False

        return all(assign(item, set()) for item in range(len(removals)))


class _Cyclic(PlanError):
    """A trial whose plan has a dependency cycle: the fork's toposort
    refuses it.  ``price`` is what it priced at; at or above the round's
    base, the roots it covers are as futile as it is."""

    def __init__(self, price: tuple[int, int]) -> None:
        super().__init__("rewritten plan has a dependency cycle")
        self.price = price


def _cyclic(index: PlanIndex, handles: Set[int]) -> bool:
    """Whether a trial's plan has a dependency cycle.  The base orders, so a
    cycle runs through a step the trial touched; and a step never depends
    on a later value of the program, so a cycle only links layouts of one
    value: it is a loop of conversions, each reading the last producer of
    its one source.  Walk that link back from each touched conversion."""
    for handle in handles:
        step, seen = index.get(handle), set()
        while isinstance(step, ExtendedStep):
            current = index.handle(step)
            if current in seen:
                return True
            seen.add(current)
            step = index.producer(step.source)
    return False


def _price(
    index: PlanIndex,
    candidate: tuple,
    cost: CostModel,
    rows: dict[int, int],
    garbage: set[int],
    produced: Set[MatrixInstance] = frozenset(),
    covers: set[tuple[int, Scheme]] | None = None,
) -> tuple[int, int]:
    """``(predicted bytes, step count)`` of the plan :func:`_build` makes of
    a candidate, read off a trial: apply it, merge the duplicates, find the
    dead steps (among what it touched and the ``garbage`` handles the plan
    came with), then take the plan's ``rows`` (handle -> bytes, summing to
    ``plan.predicted_bytes``) less the steps gone, plus the new.

    Raises :class:`PlanError` where the build would: the cascade fails, a
    step it touched reads an instance nothing produces, or the plan has a
    dependency cycle (:class:`_Cyclic`, priced if it covers any root): the
    fork's toposort refuses both.  ``covers`` receives :func:`_covers`,
    given the round's base ``produced`` instances."""
    with index.trial():
        session = _FlipSession(index, produced)
        _apply_candidate(session, candidate)
        handles, released = index.touched()
        for handle in handles:
            step = index.get(handle)
            for instance in step.inputs() if step is not None else ():
                if index.producer(instance) is None:
                    raise PlanError(f"{step} reads {instance}, which nothing produces")
        cyclic = _cyclic(index, handles)
        found = _covers(index, session, handles) if covers is not None else ()
        if cyclic and not found:  # nothing to learn from its price
            raise PlanError("rewritten plan has a dependency cycle")
        if covers is not None:
            covers.update(found)
        while merge_touched_duplicate(index, handles):
            handles, released = index.touched()
        live = {h: step for h in handles | garbage if (step := index.get(h)) is not None}
        suspects = list(live.values())
        for instance in released:
            suspects.extend(index.producers(instance))
        dead = dead_among(index, suspects, garbage)
        gone = sum(rows[h] for h in (handles | dead) & rows.keys())
        new = sum(cost.comm_bytes(live[h]) for h in handles & live.keys() - dead)
        price = index.plan.predicted_bytes - gone + new, len(index) - len(dead)
    if cyclic:
        raise _Cyclic(price)
    return price


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
        produced = frozenset(step.output_instance() for step in plan.steps)
        candidates = _candidates(index)
        index.counters["candidates_enumerated"] += len(candidates)
        heads: list[tuple[tuple[int, int], int]] = []  # (price, order)
        coverer: dict[tuple[int, Scheme], int] = {}  # root -> order covering it
        covered = collections.defaultdict(list)  # order -> orders it covers

        futility = _Futility(index, cost, rows, garbage)

        def trial(order: int, covers: set | None = None) -> None:
            index.counters["candidates_priced"] += 1
            try:
                price = _price(
                    index, candidates[order], cost, rows, garbage, produced, covers
                )
            except PlanError as refusal:  # the build would refuse it
                index.counters["candidates_refused"] += 1
                if not isinstance(refusal, _Cyclic) or refusal.price < base_cost:
                    return
            else:
                if price < base_cost:
                    heapq.heappush(heads, (price, order))
            for root in covers or ():
                coverer.setdefault(root, order)

        for order, candidate in enumerate(candidates):
            root = _root(index, candidate)
            if root in coverer:  # an earlier clean trial dominates it
                covered[coverer[root]].append(order)
            elif futility.futile(candidate):  # proved not to price below the base
                index.counters["candidates_certified"] += 1
            else:
                trial(order, set())
        fork = None
        while heads and fork is None:  # cheapest first, then first found
            __, order = heapq.heappop(heads)
            try:
                fork = _build(index, candidates[order], cost)
            except PlanError:  # candidate does not yield a valid plan
                pass
            else:
                clone = fork.plan
                if not (
                    (clone.predicted_bytes, len(clone.steps)) < base_cost
                    and cross_cost.bytes(clone.steps) <= base_other
                ):
                    fork = None
            if fork is None:  # its dominance proves nothing: price what it covered
                for skipped in covered.pop(order, ()):
                    trial(skipped)
        index.counters["candidates_skipped"] += sum(map(len, covered.values()))
        if fork is None:
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
