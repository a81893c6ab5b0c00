"""Lineage-based recovery and periodic checkpointing.

:class:`RecoveringResources` wraps the runtime's
:class:`~repro.runtime.resources.ResourceManager` for chaos runs: publishes
pass through the ChaosEngine's lost-block fault point (and the checkpoint
store), and a consumer that finds its input gone triggers recomputation of
the minimal lineage cone (:mod:`repro.faults.lineage`).  The recompute runs
the *same* metered kernels as the original execution, on the consuming
stage's thread, so its flops and bytes are charged to that stage's meter
-- recovery overhead lands in the simulated clock and the communication
ledger (under a ``recovery/...`` scope) like any other work.

Recovered intermediates live in a scratch map and are dropped when
recovery finishes; only the lost instance itself is restored into the
resource manager, keeping the publish/release books intact (``releases +
losts - restores == publishes``).

:class:`CheckpointStore` persists loop-carried SSA instances (``X@v``)
every *k* iterations, charging simulated disk time, so a recovery cone
replays from the last checkpoint instead of iteration 0.
"""

from __future__ import annotations

import threading

from repro.core.plan import MatrixInstance, Plan, ProductChainStep
from repro.errors import ExecutionError, ShuffleBlockLost
from repro.faults.lineage import LineageTracker
from repro.matrix.distributed import DistributedMatrix
from repro.rdd.sizeof import model_sizeof
from repro.runtime.metering import active_meter
from repro.trace.emit import active_tracer, current_stage


def _ssa_version(name: str) -> int | None:
    """The version of a loop-carried SSA name (``rank@3`` -> 3), or ``None``
    for plain (non-loop-carried) names."""
    __, sep, version = name.rpartition("@")
    if not sep:
        return None
    try:
        return int(version)
    except ValueError:
        return None


def _matrix_bytes(matrix: DistributedMatrix) -> int:
    return sum(model_sizeof(block) for block in matrix.driver_grid().values())


class CheckpointStore:
    """Keeps every k-th SSA version of loop-carried instances."""

    def __init__(self, every: int, clock, log=None) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.every = every
        self._clock = clock
        self._log = log
        self._lock = threading.Lock()
        self._store: dict[MatrixInstance, tuple[DistributedMatrix, int]] = {}
        self.count = 0
        self.bytes_written = 0

    def maybe_checkpoint(self, instance: MatrixInstance, matrix) -> None:
        """Persist ``instance`` if it is a loop-carried version on the
        checkpoint cadence; charges simulated disk-write time."""
        version = _ssa_version(instance.name)
        if version is None or version % self.every != 0:
            return
        with self._lock:
            if instance in self._store:
                return
        nbytes = _matrix_bytes(matrix)
        self._clock.advance_disk(nbytes)
        with self._lock:
            self._store[instance] = (matrix, nbytes)
            self.count += 1
            self.bytes_written += nbytes
        if self._log is not None:
            self._log.record(
                {"event": "checkpoint", "instance": str(instance), "bytes": nbytes}
            )

    def has(self, instance: MatrixInstance) -> bool:
        with self._lock:
            return instance in self._store

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        """Read a checkpoint back (charges simulated disk-read time)."""
        with self._lock:
            matrix, nbytes = self._store[instance]
        self._clock.advance_disk(nbytes)
        return matrix


class _ScratchResources:
    """Resource view the recovery cone's kernels run against: reads fall
    back scratch -> checkpoint -> live manager; writes stay in scratch."""

    def __init__(self, scratch, checkpoints, manager) -> None:
        self._scratch = scratch
        self._checkpoints = checkpoints
        self._manager = manager

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        matrix = self._scratch.get(instance)
        if matrix is not None:
            return matrix
        if self._checkpoints is not None and self._checkpoints.has(instance):
            return self._checkpoints.get(instance)
        return self._manager.get(instance)

    def publish(self, instance: MatrixInstance, matrix) -> None:
        self._scratch[instance] = matrix

    def consume(self, step) -> None:
        pass  # scratch lifetimes end with the recovery, not per step


class _RecoveryState:
    """Execution-state facade for re-running cone steps: same backend,
    inputs and scalars as the real run, but scratch-backed resources."""

    def __init__(self, base, resources: _ScratchResources) -> None:
        self.backend = base.backend
        self.inputs = base.inputs
        self.block_size = base.block_size
        self.resources = resources
        self._base = base

    def get_scalar(self, name: str) -> float:
        return self._base.get_scalar(name)

    def set_scalar(self, name: str, value: float) -> None:
        pass  # driver scalars were already computed by the real run

    def scalars_snapshot(self) -> dict[str, float]:
        return self._base.scalars_snapshot()

    def record_trace(self, plan_index, trace) -> None:
        pass


class RecoveringResources:
    """ResourceManager facade adding lost-block injection and recovery."""

    def __init__(
        self,
        manager,
        chaos,
        plan: Plan,
        backend,
        checkpoints: CheckpointStore | None = None,
        log=None,
        defuse=None,
    ) -> None:
        self._manager = manager
        self._chaos = chaos
        self._plan = plan
        self._backend = backend
        self._checkpoints = checkpoints
        self._log = log
        self._lineage = LineageTracker(plan, defuse)
        self._recovery_lock = threading.RLock()
        self._state = None  # bound by the executor before the run starts
        self.blocks_lost = 0
        self.blocks_recovered = 0
        self.bytes_recomputed = 0
        self.steps_recomputed = 0

    # The executor builds the ExecutionState *around* this object; it binds
    # itself here so recovery can re-run kernels with the run's inputs and
    # scalars.  (Lazily resolved on first use via the manager's state if
    # never bound -- but the executor always binds.)
    def bind_state(self, state) -> None:
        self._state = state
        # The wrapped manager refills spilled cache entries itself; it needs
        # the same execution state.
        self._manager.bind_state(state)

    # -- kernel-facing API ----------------------------------------------------

    def publish(self, instance: MatrixInstance, matrix) -> None:
        self._manager.publish(instance, matrix)
        if self._checkpoints is not None:
            self._checkpoints.maybe_checkpoint(instance, matrix)
        if self._chaos.on_publish(instance):
            self.invalidate(instance)

    def invalidate(self, instance: MatrixInstance) -> None:
        """Lose a live instance's blocks (an injected ``lostblock``, or a
        departed member's slots) and count it for the recovery summary."""
        self._manager.invalidate(instance)
        with self._recovery_lock:
            self.blocks_lost += 1

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        try:
            return self._manager.get(instance)
        except ExecutionError:
            pass
        with self._recovery_lock:
            # Another consumer may have finished recovering it meanwhile.
            try:
                return self._manager.get(instance)
            except ExecutionError:
                if not self._manager.is_lost(instance):
                    raise
                return self._recover(instance)

    # Everything else (consume, release_output, close, live_instances,
    # events, is_lost, ...) is the manager's own behaviour.
    def __getattr__(self, name: str):
        return getattr(self._manager, name)

    # -- recovery -------------------------------------------------------------

    def _recover(self, instance: MatrixInstance) -> DistributedMatrix:
        """Recompute a lost instance's minimal lineage cone.  Runs under the
        consuming stage's meter, so flops/bytes/disk are charged there."""
        if self._state is None:  # pragma: no cover - executor always binds
            raise ShuffleBlockLost(
                f"lost instance {instance} and no execution state to recover with"
            )
        checkpoints = self._checkpoints

        def available(inst: MatrixInstance) -> bool:
            if checkpoints is not None and checkpoints.has(inst):
                return True
            try:
                self._manager.get(inst)
            except ExecutionError:
                return False
            return True

        cone = self._lineage.recovery_cone(instance, available)
        from repro.runtime.registry import spec_for

        scratch: dict[MatrixInstance, DistributedMatrix] = {}
        rstate = _RecoveryState(
            self._state, _ScratchResources(scratch, checkpoints, self._manager)
        )
        ledger = self._backend.ledger
        meter = active_meter()
        bytes_before = (
            meter.network_bytes if meter is not None else ledger.snapshot()
        )
        # A product chain re-runs as its links, counted as the steps they
        # are: their flops then join the compute phase of the step that
        # found the loss, as they did when the links ran as steps.
        steps: list = []
        for index in cone:
            step = self._plan.steps[index]
            steps.extend(step.chain if isinstance(step, ProductChainStep) else (step,))
        with ledger.scope("recovery"):
            for step in steps:
                with ledger.scope(str(step)):
                    spec_for(step).kernel(step, rstate)
        bytes_after = (
            meter.network_bytes if meter is not None else ledger.snapshot()
        )
        matrix = scratch.get(instance)
        if matrix is None:
            raise ShuffleBlockLost(
                f"recovery cone for {instance} did not rebuild it "
                f"(steps {cone})"
            )
        self._manager.restore(instance, matrix)
        self.blocks_recovered += 1
        self.bytes_recomputed += bytes_after - bytes_before
        self.steps_recomputed += len(steps)
        if self._log is not None:
            self._log.record(
                {
                    "event": "recovered",
                    "instance": str(instance),
                    "steps": len(steps),
                    "bytes": bytes_after - bytes_before,
                }
            )
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "recovery",
                "cone",
                stage=current_stage(),
                instance=str(instance),
                steps=len(steps),
                bytes=bytes_after - bytes_before,
            )
        return matrix
