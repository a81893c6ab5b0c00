"""Execution backends: where kernels actually run.

The operator kernels in :mod:`repro.runtime.registry` are written against
the :class:`Backend` protocol, not against the simulated cluster, so the
runtime has a seam for future backends (a process pool, a real Spark
bridge) without touching the kernels or the scheduler.  The interface is
sized to what a plan needs: materialise sources, apply the extended
operators, run the compute strategies, aggregate to driver scalars, and
expose the metering surface (ledger, clock, per-worker flop counters) the
scheduler charges simulated time through.

:class:`SimulatedBackend` is the one shipping implementation: a thin
adapter over :class:`~repro.rdd.context.ClusterContext` and the physical
primitives of :mod:`repro.matrix.primitives`.  It also applies the
context's membership timeline as stages execute:

* before a stage-graph node runs, every timeline event due at or before
  its (cumulative) stage is applied;
* a **leave** loses the departed member's in-memory blocks: live
  partitioned instances with blocks on its slots are invalidated, and the
  first consumer recomputes them through lineage recovery (broadcast
  replicas survive -- every member holds a full copy);
* a **join** rendezvous-moves the joiner's fair share of slots: live
  blocks on the moved slots are shipped to the joiner, metered as
  ``rebalance`` traffic, and each joiner additionally fetches a replica
  of every live broadcast matrix.

Transition application is idempotent under stage retries: invalidation
scans the *current* live set (an instance lost by a failed attempt is
simply absent the second time), and the pool's cursor only advances once
the side effects have completed.  A static cluster is the timeline with no
events, for which all of this is a loop that finds nothing to do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.blocks.coordinate import CoordinateMatrix, as_matrix
from repro.elastic.pool import Transition
from repro.errors import ExecutionError
from repro.lang.program import FullOp, LoadOp, RandomOp
from repro.matrix.distributed import DistributedMatrix
from repro.localexec.fused import FusedChain
from repro.matrix.primitives import (
    bmm,
    broadcast_matrix,
    cellwise_op,
    col_sums,
    cpmm,
    extract,
    fused_cellwise_op,
    local_transpose,
    matrix_sq_sum,
    matrix_sum,
    repartition,
    rmm1,
    rmm2,
    row_sums,
    scalar_op_matrix,
    unary_op_matrix,
)
from repro.matrix.schemes import Scheme
from repro.rdd.clock import SimulatedClock
from repro.rdd.context import ClusterContext
from repro.rdd.ledger import CommunicationLedger
from repro.rdd.sizeof import model_sizeof

if TYPE_CHECKING:
    from repro.faults.chaos import ChaosEngine
    from repro.runtime.graph import StageNode
    from repro.runtime.resources import ResourceManager
    from repro.runtime.scheduler import SchedulerReport


@runtime_checkable
class Backend(Protocol):
    """What the runtime needs from an execution substrate."""

    # -- kernels ------------------------------------------------------------

    def materialise_source(
        self,
        op: LoadOp | RandomOp | FullOp,
        scheme: Scheme,
        block_size: int,
        inputs: dict[str, np.ndarray],
    ) -> DistributedMatrix: ...

    def extended(
        self, kind: str, source: DistributedMatrix, target_scheme: Scheme
    ) -> DistributedMatrix: ...

    def matmul(
        self,
        strategy: str,
        left: DistributedMatrix,
        right: DistributedMatrix,
        output_scheme: Scheme,
    ) -> DistributedMatrix: ...

    def cellwise(
        self, op: str, left: DistributedMatrix, right: DistributedMatrix
    ) -> DistributedMatrix: ...

    def fused_cellwise(
        self, chain: FusedChain, operands: tuple[DistributedMatrix, ...]
    ) -> DistributedMatrix: ...

    def scalar_op(
        self, op: str, source: DistributedMatrix, value: float
    ) -> DistributedMatrix: ...

    def unary(self, func: str, source: DistributedMatrix) -> DistributedMatrix: ...

    def row_agg(
        self,
        kind: str,
        source: DistributedMatrix,
        output_scheme: Scheme,
        communicates: bool,
    ) -> DistributedMatrix: ...

    def aggregate(self, kind: str, source: DistributedMatrix) -> float: ...

    def release(self, matrix: DistributedMatrix) -> None: ...

    # -- block cache accounting ---------------------------------------------

    def cached_bytes(self, matrix: DistributedMatrix) -> dict[int, int]:
        """Worker id -> model bytes of the matrix's blocks resident there
        (a Broadcast matrix charges every worker a full copy)."""
        ...

    def charge_cache(self, worker: int, nbytes: int) -> None:
        """Charge cached bytes against one worker's memory tracker; may
        raise :class:`~repro.errors.MemoryLimitExceeded`."""
        ...

    def discharge_cache(self, worker: int, nbytes: int) -> None: ...

    # -- membership ---------------------------------------------------------

    #: Cumulative rebalance traffic this backend charged (model bytes).
    rebalance_bytes: int

    def begin_node(self, node: StageNode, resources: ResourceManager) -> None:
        """Apply every membership event due before this node's stage."""
        ...

    def elastic_summary(
        self,
        report: SchedulerReport,
        *,
        events_from: int = 0,
        rebalance_bytes_before: int = 0,
    ) -> dict[str, object]:
        """What membership did to one run (worker-seconds, events fired,
        rebalance traffic)."""
        ...

    # -- fault injection ----------------------------------------------------

    def install_chaos(self, engine: ChaosEngine | None) -> None:
        """Install (or clear, with ``None``) a fault-injection engine on the
        substrate so transfer/shuffle hooks fire (see :mod:`repro.faults`)."""
        ...

    # -- metering surface ---------------------------------------------------

    @property
    def ledger(self) -> CommunicationLedger: ...

    @property
    def clock(self) -> SimulatedClock: ...

    @property
    def threads_per_worker(self) -> int: ...

    def flop_sources(self) -> dict[int, object]:
        """Worker index -> the stats object its engine reports flops on."""
        ...

    def peak_memory_bytes(self) -> int: ...


def bound_input(op: LoadOp, inputs: dict) -> np.ndarray | CoordinateMatrix:
    """The driver-side matrix bound to a load, in the form it was given
    (:func:`repro.blocks.as_matrix`), checked against the declared shape."""
    if op.output not in inputs:
        raise ExecutionError(f"no input array bound for load {op.output!r}")
    array = as_matrix(inputs[op.output])
    if array.shape != (op.rows, op.cols):
        raise ExecutionError(
            f"input {op.output!r} has shape {array.shape}, "
            f"program declared {(op.rows, op.cols)}"
        )
    return array


def _slot_bytes(matrix: DistributedMatrix, slot: int) -> int:
    """Model bytes of the matrix's blocks resident on one slot."""
    return sum(model_sizeof(block) for block in matrix.worker_grid(slot).values())


class SimulatedBackend:
    """The in-process metered cluster, adapted to the :class:`Backend` API."""

    def __init__(self, context: ClusterContext) -> None:
        self.context = context
        self.rebalance_bytes = 0

    # -- kernels ------------------------------------------------------------

    def materialise_source(
        self,
        op: LoadOp | RandomOp | FullOp,
        scheme: Scheme,
        block_size: int,
        inputs: dict[str, np.ndarray],
    ) -> DistributedMatrix:
        if isinstance(op, LoadOp):
            return DistributedMatrix.from_numpy(
                self.context, bound_input(op, inputs), block_size, scheme
            )
        if isinstance(op, RandomOp):
            return DistributedMatrix.random(
                self.context, op.rows, op.cols, block_size, scheme, seed=op.seed
            )
        if isinstance(op, FullOp):
            array = np.full((op.rows, op.cols), op.value, dtype=np.float64)
            return DistributedMatrix.from_numpy(
                self.context, array, block_size, scheme, storage="dense"
            )
        raise ExecutionError(f"unknown source operator {type(op).__name__}")

    def extended(
        self, kind: str, source: DistributedMatrix, target_scheme: Scheme
    ) -> DistributedMatrix:
        if kind == "partition":
            return repartition(source, target_scheme)
        if kind == "broadcast":
            return broadcast_matrix(source)
        if kind == "transpose":
            return local_transpose(source)
        if kind == "extract":
            return extract(source, target_scheme)
        raise ExecutionError(f"unknown extended operator {kind!r}")

    def matmul(
        self,
        strategy: str,
        left: DistributedMatrix,
        right: DistributedMatrix,
        output_scheme: Scheme,
    ) -> DistributedMatrix:
        if strategy == "rmm1":
            return rmm1(left, right)
        if strategy == "rmm2":
            return rmm2(left, right)
        if strategy == "cpmm":
            return cpmm(left, right, output_scheme=output_scheme)
        if strategy == "bmm":
            return bmm(left, right)
        raise ExecutionError(f"unknown matmul strategy {strategy!r}")

    def cellwise(
        self, op: str, left: DistributedMatrix, right: DistributedMatrix
    ) -> DistributedMatrix:
        return cellwise_op(op, left, right)

    def fused_cellwise(
        self, chain: FusedChain, operands: tuple[DistributedMatrix, ...]
    ) -> DistributedMatrix:
        return fused_cellwise_op(chain, operands)

    def scalar_op(
        self, op: str, source: DistributedMatrix, value: float
    ) -> DistributedMatrix:
        return scalar_op_matrix(op, source, value)

    def unary(self, func: str, source: DistributedMatrix) -> DistributedMatrix:
        return unary_op_matrix(func, source)

    def row_agg(
        self,
        kind: str,
        source: DistributedMatrix,
        output_scheme: Scheme,
        communicates: bool,
    ) -> DistributedMatrix:
        aggregate = row_sums if kind == "rowsum" else col_sums
        if communicates:
            return aggregate(source, output_scheme=output_scheme)
        return aggregate(source)

    def aggregate(self, kind: str, source: DistributedMatrix) -> float:
        if kind == "sum":
            return matrix_sum(source)
        if kind == "sqsum":
            return matrix_sq_sum(source)
        if kind == "value":
            return source.value()
        raise ExecutionError(f"unknown aggregation {kind!r}")

    def release(self, matrix: DistributedMatrix) -> None:
        # Grids were discharged from the memory trackers when their producing
        # operation completed; dropping the reference is all that remains.
        pass

    # -- block cache accounting ---------------------------------------------

    def cached_bytes(self, matrix: DistributedMatrix) -> dict[int, int]:
        # Resident bytes aggregated onto the slots' *current owner members*
        # (a member owning several slots is charged for all of them), so
        # charge and discharge land on the same members' trackers.
        pool = self.context.pool
        out: dict[int, int] = {}
        for slot in range(pool.slots):
            nbytes = _slot_bytes(matrix, slot)
            if nbytes:
                member = pool.member_for_slot(slot)
                out[member] = out.get(member, 0) + nbytes
        return out

    def charge_cache(self, worker: int, nbytes: int) -> None:
        self.context.engine_for_worker(worker).tracker.allocate(nbytes)

    def discharge_cache(self, worker: int, nbytes: int) -> None:
        self.context.engine_for_worker(worker).tracker.release(nbytes)

    # -- membership ---------------------------------------------------------

    def begin_node(self, node: StageNode, resources: ResourceManager) -> None:
        """Apply every timeline event due before this node's stage.

        Called by the executor at the start of each stage-graph node (runs
        with a timeline dispatch serially, so stages see transitions in a
        deterministic order).  Safe to call again on a retried node: each
        transition commits only after its side effects succeeded.
        """
        pool = self.context.pool
        while True:
            transition = pool.next_transition(node.stage)
            if transition is None:
                return
            if transition.event.kind == "leave":
                self._apply_leave(transition, resources)
            else:
                # The joiners' traffic belongs to the stage that ships it,
                # in the ledger as in the stage's trace context.
                with self.ledger.scope(f"stage-{node.stage}"):
                    self._apply_join(transition, resources)
            pool.commit(transition)

    def _apply_leave(
        self, transition: Transition, resources: ResourceManager
    ) -> None:
        """The departed member's in-memory blocks are gone: invalidate live
        partitioned instances with blocks on its slots (lineage recovery
        rebuilds them on first use).  Broadcast matrices survive -- every
        remaining member holds a full replica."""
        lost_slots = tuple(
            sorted(
                slot
                for slot, owner in transition.moved_slots.items()
                if owner == transition.departed
            )
        )
        for instance, matrix in resources.live_items():
            if matrix.scheme is Scheme.BROADCAST:
                continue
            if any(matrix.worker_grid(slot) for slot in lost_slots):
                resources.invalidate(instance)

    def _apply_join(
        self, transition: Transition, resources: ResourceManager
    ) -> None:
        """Ship live blocks on the moved slots to their new owner and give
        each joiner a replica of every live broadcast matrix; all of it is
        metered as ``rebalance`` traffic (and subject to injected transfer
        faults like any other transfer)."""
        new_owner = self.context.pool.assignment_for(transition.members_after)
        moved = sorted(transition.moved_slots)
        links: dict[tuple[int, int], int] = {}
        moved_bytes = 0
        replica_bytes = 0
        for __, matrix in resources.live_items():
            if matrix.scheme is Scheme.BROADCAST:
                replica_bytes += matrix.model_nbytes() * len(transition.joined)
                continue
            for slot in moved:
                nbytes = _slot_bytes(matrix, slot)
                if nbytes:
                    link = (transition.moved_slots[slot], new_owner[slot])
                    links[link] = links.get(link, 0) + nbytes
                    moved_bytes += nbytes
        if moved_bytes:
            self.context.transfer("rebalance", moved_bytes, links)
            self.rebalance_bytes += moved_bytes
        if replica_bytes:
            self.context.transfer("rebalance", replica_bytes)
            self.rebalance_bytes += replica_bytes

    def elastic_summary(
        self,
        report: SchedulerReport,
        *,
        events_from: int = 0,
        rebalance_bytes_before: int = 0,
    ) -> dict[str, object]:
        """What membership did to one run (deterministic, simulation-only).

        ``worker_seconds`` integrates each node's simulated duration over
        the members live at its (cumulative) stage -- the "cluster cost"
        axis the elasticity benchmarks trade against throughput;
        ``slot_seconds`` is the same integral billed at the static slot
        count, i.e. what a fixed peak-size cluster would have cost.  On a
        static cluster the two are equal and ``events`` is empty.
        """
        pool = self.context.pool
        worker_seconds = 0.0
        slot_seconds = 0.0
        for timing in report.timings:
            live = len(pool.members_at(pool.stage_offset + timing.stage))
            worker_seconds += timing.duration_seconds * live
            slot_seconds += timing.duration_seconds * pool.slots
        return {
            "slots": pool.slots,
            "seed": pool.seed,
            "initial_members": pool.initial,
            "final_members": len(pool.members),
            "events": list(pool.applied_log[events_from:]),
            "worker_seconds": worker_seconds,
            "slot_seconds": slot_seconds,
            "rebalance_bytes": self.rebalance_bytes - rebalance_bytes_before,
        }

    # -- fault injection ----------------------------------------------------

    def install_chaos(self, engine: ChaosEngine | None) -> None:
        self.context.install_chaos(engine)

    # -- metering surface ---------------------------------------------------

    @property
    def ledger(self) -> CommunicationLedger:
        return self.context.ledger

    @property
    def clock(self) -> SimulatedClock:
        return self.context.clock

    @property
    def threads_per_worker(self) -> int:
        return self.context.config.threads_per_worker

    def flop_sources(self) -> dict[int, object]:
        # Keyed by member id, not slot position: a member owning several
        # slots reports all their flops on its one engine.
        return {
            w: self.context.engine_for_worker(w).stats
            for w in self.context.workers()
        }

    def peak_memory_bytes(self) -> int:
        return self.context.peak_memory_bytes()
