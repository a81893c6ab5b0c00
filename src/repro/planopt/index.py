"""The optimizer's def-use index: who produces and who reads every instance.

Every pass asks the same structural questions -- which step materialises an
instance, which steps read it, which other layouts of the same matrix
exist -- and used to answer each by rescanning ``plan.steps``.
:class:`PlanIndex` answers them from maps that are built once and then
maintained by the only three mutations passes perform: :meth:`rebind` a
step's fields, :meth:`append` a step, :meth:`remove` a step.  While an
index is alive it owns the step order; ``plan.steps`` is rewritten by
:meth:`flush` (every pass flushes before it returns).

Steps are mutable dataclasses (unhashable, and ``id()`` is only unique
among *live* objects), so the index names each step by a **handle**: an
integer that grows in step order and is never handed to a second step
within one :meth:`trial`.  Handle order *is* step order, which keeps the
two scan-order rules of the old ``producer_map`` loops without a scan:

* **last producer wins** -- an instance produced twice is read from the
  producing step with the highest handle (:meth:`producer`);
* **first producer orders** -- the layouts of one matrix
  (:meth:`siblings`) and the keys of :meth:`producer_map` come in the
  order of each instance's *first* producer.

:meth:`trial` makes a block of mutations provisional: they are logged and
undone on exit, so the coalescing pass can apply a candidate rewrite to
the plan it is searching from and read its price off the steps the trial
:meth:`touched`; a clone is paid for only to build the one that wins.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import heapq
from bisect import insort
from collections.abc import Iterable, Iterator, Set

from repro.core.plan import MatrixInstance, Plan, Step
from repro.errors import PlanError


class PlanIndex:
    """Incrementally maintained producers / consumers / siblings of a plan."""

    def __init__(
        self,
        plan: Plan,
        *,
        ordered: bool = False,
        counters: collections.Counter | None = None,
    ) -> None:
        self.plan = plan
        #: Deterministic work counts (``index_builds``, ``plan_scans`` and
        #: whatever passes add), for the complexity gate -- never timings.
        self.counters = collections.Counter() if counters is None else counters
        #: Bumped by every mutation; lets a pass recognise a plan it has
        #: already searched to a fixpoint.
        self.version = 0
        #: Pass key -> the version at which that pass last found nothing to
        #: do; while the version stands, running it again is a no-op.
        self.fixpoints: dict[object, int] = {}
        self._log: list[tuple] | None = None
        self.rebuild(ordered=ordered)

    def rebuild(self, *, ordered: bool = False) -> None:
        """Re-derive every map from ``plan.steps`` (after a pass that edited
        the step list directly).  ``ordered`` asserts the list is already
        in the order :meth:`toposort` would give."""
        self.counters["index_builds"] += 1
        self.version += 1
        self._ordered = ordered
        self._steps: dict[int, Step] = {}
        self._handles: dict[int, int] = {}  # id(live step) -> handle
        self._producers: dict[MatrixInstance, list[int]] = {}  # ascending
        self._consumers: dict[MatrixInstance, set[int]] = {}
        self._scalars: dict[str, list[int]] = {}  # scalar name -> producers
        self._layouts: dict[str, dict[MatrixInstance, None]] = {}
        self._next = 0
        for step in self.plan.steps:
            self._insert(self._next, step)
            self._next += 1

    # -- bookkeeping ----------------------------------------------------------

    def _insert(self, handle: int, step: Step) -> None:
        self._steps[handle] = step
        self._handles[id(step)] = handle
        self._link(handle, step)

    def _link(self, handle: int, step: Step) -> None:
        self._produce(handle, step.output_instance())
        self._read(handle, step.inputs())
        scalar = step.scalar_output()
        if scalar is not None:
            insort(self._scalars.setdefault(scalar, []), handle)

    def _unlink(self, handle: int, step: Step) -> None:
        self._unproduce(handle, step.output_instance())
        self._unread(handle, set(step.inputs()))
        scalar = step.scalar_output()
        if scalar is not None:
            self._scalars[scalar].remove(handle)

    def _produce(self, handle: int, output: MatrixInstance | None) -> None:
        if output is not None:
            insort(self._producers.setdefault(output, []), handle)
            self._layouts.setdefault(output.name, {})[output] = None

    def _unproduce(self, handle: int, output: MatrixInstance | None) -> None:
        if output is not None:
            handles = self._producers[output]
            handles.remove(handle)
            if not handles:
                del self._producers[output]

    def _read(self, handle: int, instances: Iterable[MatrixInstance]) -> None:
        for instance in instances:
            self._consumers.setdefault(instance, set()).add(handle)
            self._layouts.setdefault(instance.name, {})[instance] = None

    def _unread(self, handle: int, instances: Iterable[MatrixInstance]) -> None:
        for instance in instances:
            readers = self._consumers[instance]
            readers.discard(handle)
            if not readers:
                del self._consumers[instance]

    def _relink(self, handle: int, before: tuple, after: tuple) -> None:
        """Move a step's edges from one ``(output, inputs)`` to another
        (its scalar output is part of its operator and never rebound)."""
        (output, inputs), (new_output, new_inputs) = before, after
        if new_output != output:
            self._unproduce(handle, output)
            self._produce(handle, new_output)
        self._unread(handle, set(inputs).difference(new_inputs))
        self._read(handle, set(new_inputs).difference(inputs))

    def _drop(self, step: Step) -> int:
        handle = self._handles.pop(id(step))
        self._unlink(handle, step)
        del self._steps[handle]
        return handle

    def _mutated(self, entry: tuple) -> None:
        self.version += 1
        if self._log is not None:
            self._log.append(entry)

    # -- the three mutations --------------------------------------------------

    def rebind(self, step: Step, **fields: object) -> None:
        """Set fields of ``step`` (operands, output, strategy)."""
        handle, state = self._handles[id(step)], vars(step)
        old = {field: state[field] for field in fields}
        before = (step.output_instance(), step.inputs())
        state.update(fields)
        after = (step.output_instance(), step.inputs())
        self._relink(handle, before, after)
        self._ordered = False
        self._mutated(("rebind", handle, step, (old, before, after)))

    def append(self, step: Step) -> None:
        """Add ``step`` after every existing step."""
        self._insert(self._next, step)
        self._next += 1
        self._ordered = False
        self._mutated(("append", self._next - 1, step, None))

    def remove(self, step: Step) -> None:
        """Delete ``step`` (by identity, never by dataclass equality)."""
        self._mutated(("remove", self._drop(step), step, None))

    # -- queries --------------------------------------------------------------

    def handle(self, step: Step) -> int:
        return self._handles[id(step)]

    def get(self, handle: int) -> Step | None:
        """The live step of that handle, if it is (still) in the plan."""
        return self._steps.get(handle)

    def __len__(self) -> int:
        return len(self._steps)

    def _live(self) -> list[Step]:
        return [self._steps[handle] for handle in sorted(self._steps)]

    def steps(self) -> list[Step]:
        """Every live step, in step order (a full scan: counted)."""
        self.counters["plan_scans"] += 1
        return self._live()

    def flush(self) -> None:
        """Write the live steps back to ``plan.steps``."""
        self.plan.steps = self._live()

    def producer(self, instance: MatrixInstance) -> Step | None:
        """The step ``instance`` is read from: its last producer."""
        handles = self._producers.get(instance)
        return self._steps[handles[-1]] if handles else None

    def producers(self, value: MatrixInstance | str) -> list[Step]:
        """Every step producing an instance (by name: a scalar), in step order."""
        table = self._scalars if isinstance(value, str) else self._producers
        return [self._steps[h] for h in table.get(value, ())]

    def consumers(self, instance: MatrixInstance) -> list[Step]:
        """Every step reading ``instance`` (once each), in step order."""
        return [self._steps[h] for h in sorted(self._consumers.get(instance, ()))]

    def readers(self, instance: MatrixInstance) -> Set[int]:
        """The handles of :meth:`consumers`, unordered and not to be edited."""
        return self._consumers.get(instance, frozenset())

    def siblings(self, instance: MatrixInstance) -> list[MatrixInstance]:
        """Produced instances of the same ``(name, transposed)``, in the
        order of their first producers."""
        found = [
            layout
            for layout in self._layouts.get(instance.name, ())
            if layout.transposed == instance.transposed
            and layout in self._producers
        ]
        found.sort(key=lambda layout: self._producers[layout][0])
        return found

    def mentions(self, name: str) -> list[Step]:
        """Every step producing or reading any layout of ``name``."""
        handles: set[int] = set()
        for layout in self._layouts.get(name, ()):
            handles.update(self._producers.get(layout, ()))
            handles.update(self._consumers.get(layout, ()))
        return [self._steps[handle] for handle in sorted(handles)]

    def producer_map(self) -> dict[MatrixInstance, Step]:
        """Instance -> the step that materialises it, as one dict."""
        ranked = sorted(self._producers.items(), key=lambda item: item[1][0])
        return {instance: self._steps[hs[-1]] for instance, hs in ranked}

    def consumer_map(self) -> dict[MatrixInstance, list[Step]]:
        """Instance -> every step that reads it, as one dict."""

        def first_read(instance: MatrixInstance) -> tuple[int, int]:
            handle = min(self._consumers[instance])
            return handle, self._steps[handle].inputs().index(instance)

        return {
            instance: self.consumers(instance)
            for instance in sorted(self._consumers, key=first_read)
        }

    # -- ordering -------------------------------------------------------------

    def toposorted(self) -> list[Step]:
        """The live steps in stable topological order.

        Stable Kahn over matrix *and* scalar dependencies: among ready
        steps the current relative order is kept, so an already sorted
        plan comes back unchanged.  Raises :class:`PlanError` on a cycle
        or a step consuming an instance nothing produces (an optimizer
        bug -- callers treat it as "abort this candidate").
        """
        self.counters["plan_scans"] += 1
        dependents: dict[int, list[int]] = {handle: [] for handle in self._steps}
        indegree: dict[int, int] = {}
        for handle in sorted(self._steps):
            step = self._steps[handle]
            deps = set()
            for instance in step.inputs():
                producers = self._producers.get(instance)
                if not producers:
                    raise PlanError(
                        f"rewritten plan consumes {instance} but nothing produces it"
                    )
                deps.add(producers[-1])
            for name in step.scalar_inputs():
                producers = self._scalars.get(name)
                if producers:  # program-level scalars need no step
                    deps.add(producers[-1])
            indegree[handle] = len(deps)
            for dep in deps:
                dependents[dep].append(handle)
        ready = [handle for handle, count in indegree.items() if count == 0]
        order: list[Step] = []
        while ready:
            handle = heapq.heappop(ready)
            order.append(self._steps[handle])
            for successor in dependents[handle]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    heapq.heappush(ready, successor)
        if len(order) != len(self._steps):
            raise PlanError("rewritten plan has a dependency cycle")
        return order

    def toposort(self) -> None:
        """Put the plan into stable topological order (and flush it).  Free
        when nothing was rebound or appended since the last sort: removing
        steps cannot invalidate an order."""
        self.flush()
        if self._ordered:
            return
        order = self.toposorted()
        if any(a is not b for a, b in zip(order, self.plan.steps)):
            self.plan.steps = order
            self.rebuild()  # handle order is step order: renumber
        self._ordered = True

    # -- provisional mutations ------------------------------------------------

    @contextlib.contextmanager
    def trial(self) -> Iterator[None]:
        """Undo, on exit, every mutation made inside the block; the block
        edits a copy of the plan's output table."""
        assert self._log is None, "trials do not nest"
        saved = (self.version, self._ordered, self._next)
        self._log, outputs = [], self.plan.outputs
        self.plan.outputs = dict(outputs)
        try:
            yield
        finally:
            for kind, handle, step, old in reversed(self._log):
                if kind == "rebind":
                    fields, before, after = old
                    vars(step).update(fields)
                    self._relink(handle, after, before)
                elif kind == "append":
                    self._drop(step)
                else:
                    self._insert(handle, step)
            self._log, self.plan.outputs = None, outputs
            self.version, self._ordered, self._next = saved

    def touched(self) -> tuple[set[int], set[MatrixInstance]]:
        """What the current trial changed: the handles of every step it
        rebound, appended or removed, and the instances such a step used to
        read (whose producers may have lost their last reader)."""
        assert self._log is not None
        handles = {entry[1] for entry in self._log}
        released: set[MatrixInstance] = set()
        for kind, __, step, old in self._log:
            if kind == "remove":
                released.update(step.inputs())
            elif kind == "rebind":
                released.update(old[1][1])
        return handles, released

    def fork(self) -> "PlanIndex":
        """A new plan holding copies of the live steps in topological order
        (what ``clone_plan`` + ``toposort_steps`` would give), with its own
        index.  Called inside a trial it snapshots the trial's effect."""
        steps = [copy_step(step) for step in self.toposorted()]
        plan = dataclasses.replace(
            self.plan, steps=steps, outputs=dict(self.plan.outputs), num_stages=0
        )
        return PlanIndex(plan, ordered=True, counters=self.counters)

    def adopt(self, other: "PlanIndex") -> None:
        """Become ``other``: take its steps, outputs and maps into this
        index's plan (how an accepted candidate replaces the plan it was
        forked from without a rebuild)."""
        plan = self.plan
        plan.steps, plan.outputs = other.plan.steps, other.plan.outputs
        plan.predicted_bytes = other.plan.predicted_bytes
        version = self.version + 1
        self.__dict__.update(other.__dict__)
        self.plan, self.version = plan, version


def copy_step(step: Step) -> Step:
    """A shallow copy (``copy.copy`` minus its dispatch: a plan is cloned
    per certified pass); the frozen instances stay shared."""
    clone = object.__new__(type(step))
    clone.__dict__.update(step.__dict__)
    return clone
