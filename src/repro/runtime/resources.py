"""Refcount-based lifetime management for materialised matrices.

The serial executor freed matrices with a liveness pass ("pop after the
step whose index equals the instance's last use") -- correct only when
steps run in plan order.  Under concurrent stages there is no single
"current index", so lifetimes are reference counts instead: an instance's
count is the number of plan steps that consume it (plus a pin for every
program output), decremented as each consumer finishes.  At zero the
matrix is dropped.

Every transition is recorded in an event log (``("publish" | "release" |
"lost" | "restore", instance)``), which is what the lifecycle property
tests assert over: every instance published during a run -- finished or
aborted -- is released exactly once (with fault injection, an instance may
additionally be ``lost`` and later ``restore``\\ d by lineage recovery; the
books balance as ``releases + losts - restores == publishes``).  The log is
bounded (``max_events``, default :data:`DEFAULT_MAX_EVENTS`) so long
iterative runs with retries cannot grow it without bound;
``events_recorded`` / ``events_dropped`` expose the true totals.

Plans carrying optimizer ``cache_pins`` additionally run with a
:class:`BlockCache`: pinned instances hold an extra reference (like output
pins), their resident bytes are charged to the per-worker memory trackers
so ``peak_memory_bytes`` reflects them, and under cache-budget pressure
the least-recently-used pin is *spilled* (``("spill", instance)``) --
freed, but transparently recomputed through its lineage cone on the next
``get`` (``("refill", instance)``).  Spill/refill events ride alongside
the publish/release books without changing their balance.

A spilled pin and a lost instance are rebuilt by one path,
:meth:`ResourceManager._rebuild`: the minimal lineage cone, stopping at
live or checkpointed instances, re-runs the registry kernels on the
consuming stage's thread, charged to its meter and to the ledger under
``cache-refill/<step>`` or ``recovery/<step>``.
On a chaos run every publish may also be checkpointed and may roll the
``lostblock`` fault.
"""

from __future__ import annotations

import collections
import threading

from repro.core.plan import MatrixInstance, Plan, Step
from repro.errors import ExecutionError, MemoryLimitExceeded, ShuffleBlockLost
from repro.matrix.distributed import DistributedMatrix
from repro.runtime.metering import active_meter
from repro.runtime.registry import spec_for
from repro.trace.emit import active_tracer, current_stage

#: Default cap on the lifecycle event log.  Long iterative runs with
#: retries would otherwise grow it without bound; the cap is generous
#: enough that every test-scale run keeps its full history.
DEFAULT_MAX_EVENTS = 65536


class BlockCache:
    """LRU residency tracking for the plan's pinned (hoisted) instances.

    The cache does not own matrices -- the :class:`ResourceManager` does.
    It decides which pinned instances stay resident under the per-worker
    ``budget_bytes``, and charges/releases their model bytes against the
    cluster context's per-worker memory trackers, so a run's
    ``peak_memory_bytes`` accounts for what caching keeps alive.
    """

    def __init__(
        self,
        pins: tuple[MatrixInstance, ...],
        context,
        budget_bytes: int | None = None,
    ) -> None:
        self._pins = frozenset(pins)
        self._context = context
        self._budget = budget_bytes
        self._lock = threading.Lock()
        # instance -> per-worker resident bytes charged for it (LRU order).
        self._entries: collections.OrderedDict[MatrixInstance, dict[int, int]] = (
            collections.OrderedDict()
        )
        self._worker_bytes: dict[int, int] = {}
        self.admitted = 0
        self.spilled = 0
        self.refilled = 0
        self.hits = 0  # reads served while the pinned instance was hosted
        self.misses = 0  # reads of a pinned instance that was not hosted
        self.peak_pinned_bytes = 0

    def wants(self, instance: MatrixInstance) -> bool:
        return instance in self._pins

    def is_hosted(self, instance: MatrixInstance) -> bool:
        with self._lock:
            return instance in self._entries

    def admit(
        self, instance: MatrixInstance, matrix: DistributedMatrix
    ) -> list[MatrixInstance]:
        """Host a pinned instance; returns the LRU victims evicted to make
        room (the manager spills them).  An instance that cannot fit even
        after evicting everything else is simply not hosted -- it then
        lives and dies by its refcount like any other instance."""
        per_worker = self._context.cached_bytes(matrix)
        with self._lock:
            if instance in self._entries:
                return []
            victims: list[MatrixInstance] = []
            while self._overflows(per_worker) and self._entries:
                victim, victim_bytes = self._entries.popitem(last=False)
                self._uncharge(victim_bytes)
                victims.append(victim)
                self.spilled += 1
            if self._overflows(per_worker):
                return victims  # alone over budget: do not host
            if not self._charge(per_worker):
                return victims  # engine memory exhausted: do not host
            self._entries[instance] = per_worker
            self.admitted += 1
            return victims

    def touch(self, instance: MatrixInstance) -> None:
        with self._lock:
            if instance in self._entries:
                self.hits += 1
                self._entries.move_to_end(instance)
            elif instance in self._pins:
                self.misses += 1

    def discharge(self, instance: MatrixInstance) -> None:
        """Stop hosting an instance (freed, lost, or spilled externally)."""
        with self._lock:
            per_worker = self._entries.pop(instance, None)
            if per_worker is not None:
                self._uncharge(per_worker)

    def close(self) -> None:
        with self._lock:
            for per_worker in self._entries.values():
                self._uncharge(per_worker)
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "pins": len(self._pins),
                "hosted": len(self._entries),
                "admitted": self.admitted,
                "spilled": self.spilled,
                "refilled": self.refilled,
                "hits": self.hits,
                "misses": self.misses,
                "pinned_bytes": sum(self._worker_bytes.values()),
                "peak_pinned_bytes": self.peak_pinned_bytes,
                "budget_bytes": self._budget,
            }

    # -- internals (caller holds self._lock) ---------------------------------

    def _overflows(self, per_worker: dict[int, int]) -> bool:
        if self._budget is None:
            return False
        return any(
            self._worker_bytes.get(worker, 0) + nbytes > self._budget
            for worker, nbytes in per_worker.items()
        )

    def _charge(self, per_worker: dict[int, int]) -> bool:
        charged: list[tuple[int, int]] = []
        for worker, nbytes in per_worker.items():
            try:
                self._context.charge_cache(worker, nbytes)
            except MemoryLimitExceeded:
                for done_worker, done_bytes in charged:
                    self._context.discharge_cache(done_worker, done_bytes)
                return False
            charged.append((worker, nbytes))
            self._worker_bytes[worker] = self._worker_bytes.get(worker, 0) + nbytes
        self.peak_pinned_bytes = max(
            self.peak_pinned_bytes, sum(self._worker_bytes.values())
        )
        return True

    def _uncharge(self, per_worker: dict[int, int]) -> None:
        for worker, nbytes in per_worker.items():
            self._context.discharge_cache(worker, nbytes)
            self._worker_bytes[worker] = self._worker_bytes.get(worker, 0) - nbytes


class _RebuildState:
    """What a rebuild cone's kernels run against: the run's backend, inputs
    and scalars, and itself as their resources -- reads fall back scratch
    -> checkpoint -> live manager, writes stay in scratch.  A cone holds
    only matrix producers, so nothing here sets a scalar."""

    def __init__(self, base, checkpoints, manager: "ResourceManager") -> None:
        self.backend = base.backend
        self.inputs = base.inputs
        self.block_size = base.block_size
        self.scratch: dict[MatrixInstance, DistributedMatrix] = {}
        self._base = base
        self._checkpoints = checkpoints
        self._manager = manager

    @property
    def resources(self) -> "_RebuildState":
        return self

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        matrix = self.scratch.get(instance)
        if matrix is not None:
            return matrix
        if self._checkpoints is not None and self._checkpoints.has(instance):
            return self._checkpoints.get(instance)
        return self._manager.get(instance)

    def publish(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        self.scratch[instance] = matrix

    def record_cut(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        self._base.record_cut(instance, matrix)

    def get_scalar(self, name: str) -> float:
        return self._base.get_scalar(name)


class ResourceManager:
    """Tracks every live :class:`DistributedMatrix` of one plan execution.

    ``chaos``, ``checkpoints`` and ``recovery_log`` are a chaos run's
    :class:`~repro.faults.ChaosEngine`, ``CheckpointStore`` and
    ``RecoveryLog`` (``None`` on a clean run); ``defuse`` is the plan's
    :class:`~repro.core.defuse.DefUse`, which the rebuild's lineage reads.
    """

    def __init__(
        self,
        plan: Plan,
        *,
        max_events: int | None = DEFAULT_MAX_EVENTS,
        cache: BlockCache | None = None,
        chaos=None,
        checkpoints=None,
        recovery_log=None,
        defuse=None,
    ) -> None:
        self._plan = plan
        self._cache = cache
        self._chaos = chaos
        self._checkpoints = checkpoints
        self._recovery_log = recovery_log
        self._defuse = defuse
        self._lineage = None  # built on the first rebuild
        self._state = None  # bound by the executor before the run starts
        self._lock = threading.Lock()
        self._rebuild_lock = threading.RLock()
        self.blocks_lost = 0
        self.blocks_recovered = 0
        self.steps_recomputed = 0
        self.bytes_recomputed = 0
        self._live: dict[MatrixInstance, DistributedMatrix] = {}
        self._released: set[MatrixInstance] = set()
        self._lost: set[MatrixInstance] = set()
        self._spilled: set[MatrixInstance] = set()
        self._refs: dict[MatrixInstance, int] = {}
        self.events: collections.deque[tuple[str, MatrixInstance]] = collections.deque(
            maxlen=max_events
        )
        self.events_recorded = 0
        for step in plan.steps:
            for instance in step.inputs():
                self._refs[instance] = self._refs.get(instance, 0) + 1
        for instance in plan.outputs.values():
            # Pin program outputs until the driver has materialised them.
            self._refs[instance] = self._refs.get(instance, 0) + 1
        if cache is not None:
            for instance in plan.cache_pins:
                # Cache pins hold a reference for the whole run, like output
                # pins; close() settles it.
                self._refs[instance] = self._refs.get(instance, 0) + 1

    def bind_state(self, state) -> None:
        """Give the manager the run's execution state, so spilled and lost
        instances can be recomputed through their lineage cone."""
        self._state = state

    # -- kernel-facing API --------------------------------------------------

    def publish(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        """Register a step's freshly produced output (on a chaos run: then
        checkpoint it if due, and roll the ``lostblock`` fault on it)."""
        with self._lock:
            if instance in self._live or instance in self._released:
                raise ExecutionError(f"instance {instance} produced twice")
            self._log(("publish", instance))
            unread = self._refs.get(instance, 0) <= 0
            if unread:
                # Nothing will ever read it (planner never emits such steps,
                # but hand-built plans can): release immediately.
                self._released.add(instance)
                self._log(("release", instance))
            else:
                self._live[instance] = matrix
        if not unread:
            self._maybe_admit(instance, matrix)
        if self._checkpoints is not None:
            self._checkpoints.maybe_checkpoint(instance, matrix)
        if self._chaos is not None and self._chaos.on_publish(instance):
            self.invalidate(instance)

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        """The live matrix for an instance (its refcount is untouched;
        consumption is per *step*, via :meth:`consume`).  A spilled or lost
        instance is rebuilt through its lineage cone first."""
        with self._lock:
            matrix = self._live.get(instance)
            spilled = instance in self._spilled
            lost = instance in self._lost
        if matrix is not None:
            if self._cache is not None:
                self._cache.touch(instance)
                tracer = active_tracer()
                if tracer is not None and self._cache.is_hosted(instance):
                    tracer.event(
                        "cache", "hit", stage=current_stage(), instance=str(instance)
                    )
            return matrix
        if spilled or lost:
            return self._rebuild(instance, "cache-refill" if spilled else "recovery")
        raise ExecutionError(
            f"plan step consumes {instance} but it is not materialised"
        )

    def consume(self, step: Step) -> None:
        """A step finished: drop one reference per input it consumed."""
        for instance in step.inputs():
            self._decref(instance)

    def release_output(self, instance: MatrixInstance) -> None:
        """Drop the output pin after the driver materialised the result."""
        self._decref(instance)

    # -- fault injection / recovery -----------------------------------------

    def invalidate(self, instance: MatrixInstance) -> None:
        """Drop a live instance's blocks as if lost to a failure (an
        injected ``lostblock``, or a departed member's slots).

        The refcount is untouched: consumers still expect the instance, and
        the first one to :meth:`get` it will find it missing and trigger
        lineage recovery.  Recovery re-registers the matrix via
        :meth:`restore`.
        """
        with self._lock:
            if self._live.pop(instance, None) is None:
                raise ExecutionError(
                    f"cannot invalidate {instance}: it is not materialised"
                )
            self._lost.add(instance)
            self._log(("lost", instance))
            self.blocks_lost += 1
        if self._cache is not None:
            self._cache.discharge(instance)

    def is_lost(self, instance: MatrixInstance) -> bool:
        """``True`` while an instance is invalidated and not yet restored."""
        with self._lock:
            return instance in self._lost

    def restore(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        """Re-register a recomputed matrix for a previously lost instance."""
        with self._lock:
            if instance not in self._lost:
                raise ExecutionError(
                    f"cannot restore {instance}: it was never invalidated"
                )
            self._lost.discard(instance)
            self._live[instance] = matrix
            self._log(("restore", instance))
        self._maybe_admit(instance, matrix)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release everything still live (normal end or mid-run abort).

        Idempotent, and exactly-once per instance: anything already released
        through refcounting is skipped."""
        with self._lock:
            leftovers = list(self._live)
            self._live.clear()
            for instance in leftovers:
                self._released.add(instance)
                self._log(("release", instance))
            # Spilled-and-never-refilled cache entries were freed at spill
            # time; settle their books so every publish has its release.
            for instance in list(self._spilled):
                self._released.add(instance)
                self._log(("release", instance))
            self._spilled.clear()
        if self._cache is not None:
            self._cache.close()

    def live_instances(self) -> list[MatrixInstance]:
        with self._lock:
            return list(self._live)

    def live_items(self) -> list[tuple[MatrixInstance, DistributedMatrix]]:
        """Live (instance, matrix) pairs, without touching refcounts or the
        cache LRU (unlike :meth:`get`).  The elastic pool scans these to
        find blocks resident on a departing member."""
        with self._lock:
            return list(self._live.items())

    @property
    def events_dropped(self) -> int:
        """How many lifecycle events fell off the bounded log."""
        return self.events_recorded - len(self.events)

    # -- internals ----------------------------------------------------------

    def _log(self, event: tuple[str, MatrixInstance]) -> None:
        # Caller holds self._lock.
        self.events.append(event)
        self.events_recorded += 1

    def _decref(self, instance: MatrixInstance) -> None:
        with self._lock:
            if instance in self._released or instance not in self._live:
                return
            remaining = self._refs.get(instance, 0) - 1
            self._refs[instance] = remaining
            if remaining > 0:
                return
            del self._live[instance]
            self._released.add(instance)
            self._log(("release", instance))
        if self._cache is not None:
            self._cache.discharge(instance)

    # -- block cache ---------------------------------------------------------

    def _maybe_admit(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        if self._cache is None or not self._cache.wants(instance):
            return
        for victim in self._cache.admit(instance, matrix):
            self._spill(victim)
        tracer = active_tracer()
        if tracer is not None and self._cache.is_hosted(instance):
            tracer.event("cache", "pin", stage=current_stage(), instance=str(instance))

    def _spill(self, victim: MatrixInstance) -> None:
        """Free a cache-evicted instance; a later ``get`` refills it."""
        with self._lock:
            if self._live.pop(victim, None) is None:
                return  # already consumed to zero refs, lost, or spilled
            self._spilled.add(victim)
            self._log(("spill", victim))
        tracer = active_tracer()
        if tracer is not None:
            tracer.event("cache", "spill", stage=current_stage(), instance=str(victim))

    # -- lineage rebuild -----------------------------------------------------

    def _rebuild(self, instance: MatrixInstance, cause: str) -> DistributedMatrix:
        """Recompute a spilled (``cause="cache-refill"``) or lost
        (``"recovery"``) instance through its minimal lineage cone.

        Runs on the consuming stage's thread, so the recompute's flops,
        bytes and checkpoint reads are charged to that stage's meter, each
        step under a ``<cause>/<step>`` ledger scope; their flops join the
        compute phase of the step that asked.
        """
        with self._rebuild_lock:
            with self._lock:
                matrix = self._live.get(instance)
            if matrix is not None:
                return matrix  # another consumer rebuilt it meanwhile
            if self._state is None:
                raise ExecutionError(
                    f"plan step consumes {instance} but it is not materialised "
                    f"(no execution state is bound to rebuild it)"
                )
            if self._lineage is None:
                # Lazy: repro.faults sits above the runtime in the layer diagram.
                from repro.faults.lineage import LineageTracker

                self._lineage = LineageTracker(self._plan, self._defuse)
            checkpoints = self._checkpoints

            def available(inst: MatrixInstance) -> bool:
                if checkpoints is not None and checkpoints.has(inst):
                    return True
                with self._lock:
                    return inst in self._live

            cone = self._lineage.recovery_cone(instance, available)
            steps = [self._plan.steps[index] for index in cone]
            rstate = _RebuildState(self._state, checkpoints, self)
            ledger = self._state.context.ledger
            meter = active_meter()

            def moved() -> int:
                return meter.network_bytes if meter is not None else ledger.snapshot()

            bytes_before = moved()
            with ledger.scope(cause):
                for step in steps:
                    with ledger.scope(str(step)):
                        spec_for(step).kernel(step, rstate)
            nbytes = moved() - bytes_before
            matrix = rstate.scratch.get(instance)
            if matrix is None:
                raise ShuffleBlockLost(
                    f"{cause} cone for {instance} did not rebuild it (steps {cone})"
                )
            tracer = active_tracer()
            if cause == "recovery":
                self.restore(instance, matrix)
                self.blocks_recovered += 1
                self.steps_recomputed += len(steps)
                self.bytes_recomputed += nbytes
                record = {"instance": str(instance), "steps": len(steps), "bytes": nbytes}
                if self._recovery_log is not None:
                    self._recovery_log.record({"event": "recovered", **record})
                if tracer is not None:
                    tracer.event("recovery", "cone", stage=current_stage(), **record)
                return matrix
            with self._lock:
                self._spilled.discard(instance)
                self._live[instance] = matrix
                self._log(("refill", instance))
            self._cache.refilled += 1
            if tracer is not None:
                tracer.event(
                    "cache",
                    "refill",
                    stage=current_stage(),
                    instance=str(instance),
                    steps_recomputed=len(steps),
                )
            self._maybe_admit(instance, matrix)
            return matrix
