"""The cluster context: workers, membership, ledger, clock.

:class:`ClusterContext` is this reproduction's stand-in for a SparkContext
over a physical cluster (see DESIGN.md, Substitutions).  It owns

* ``K`` logical worker *slots* and the :class:`~repro.elastic.pool.ElasticPool`
  that says which live *member* owns each slot; every member has its own
  :class:`~repro.localexec.engine.LocalEngine` (``L`` threads, In-Place or
  Buffer aggregation, optional memory budget),
* the single :class:`~repro.rdd.ledger.CommunicationLedger` through which
  every cross-worker byte must pass,
* the :class:`~repro.rdd.clock.SimulatedClock` that converts metered bytes
  and flops into the execution-time series the benchmarks report, and
* the one host thread pool (:class:`~repro.localexec.lanes.LanePool`) its
  engines' block tasks and the scheduler's stage nodes run on, for its
  whole lifetime (:meth:`ClusterContext.close`).

Partition ``p`` of any RDD lives on slot ``p % K``, whoever owns it.  The
slot count is the peak membership of the config's ``elastic`` timeline, so
everything the ledger records is independent of churn; only the simulated
compute time changes, because a member owning several slots accumulates
all their flops on one engine and becomes the slowest worker of the phase.
A static cluster is the timeline with no events: member ``w`` owns slot
``w`` for the whole run.

The context also applies that timeline as a plan executes
(:meth:`ClusterContext.begin_node`):

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
the side effects have completed.  On a static cluster all of this is a
loop that finds nothing to do.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.config import ClusterConfig
from repro.elastic.pool import ElasticPool, Transition
from repro.errors import ClusterError
from repro.localexec.engine import LocalEngine
from repro.localexec.lanes import LanePool
from repro.matrix.schemes import Scheme
from repro.rdd.clock import SimulatedClock
from repro.rdd.ledger import CommunicationLedger
from repro.rdd.partitioner import Partitioner
from repro.rdd.sizeof import model_sizeof

if TYPE_CHECKING:
    from repro.faults.chaos import ChaosEngine
    from repro.matrix.distributed import DistributedMatrix
    from repro.rdd.rdd import RDD
    from repro.runtime.backend import SimulatedBackend
    from repro.runtime.graph import StageNode
    from repro.runtime.resources import ResourceManager
    from repro.runtime.scheduler import SchedulerReport


class ClusterContext:
    """Entry point to the simulated cluster."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        config = config or ClusterConfig()
        #: Membership: ``config.num_workers`` initial members plus whatever
        #: the ``elastic`` timeline admits.
        self.pool = ElasticPool(
            config.elastic or "",
            initial=config.num_workers,
            seed=config.elastic_seed,
        )
        # The slot topology is the timeline's peak membership, so planner,
        # verifier and lint all size against the slot count.
        self.config = dataclasses.replace(config, num_workers=self.pool.slots)
        self.ledger = CommunicationLedger()
        self.clock = SimulatedClock(config.clock)
        #: Installed fault-injection engine (see :mod:`repro.faults`);
        #: ``None`` means every hook below is inert.
        self.chaos: ChaosEngine | None = None
        self.lanes = LanePool()  # all host concurrency of this cluster
        #: Cumulative rebalance traffic membership joins shipped (model bytes).
        self.rebalance_bytes = 0
        #: id(plan) -> the records :func:`repro.runtime.graph.prepare` keeps.
        self.prepared: dict[int, tuple] = {}
        # One engine per member the timeline will *ever* admit (statically
        # known), so flop attribution built once at run start stays valid
        # across joins, and a departed member's counters survive for the
        # final books.
        self._member_engines = {
            member: LocalEngine(
                threads=config.threads_per_worker,
                inplace=config.inplace,
                memory_limit_bytes=config.memory_limit_bytes,
                lanes=self.lanes,
            )
            for member in self.pool.members_ever
        }

    def close(self) -> None:
        """Stop this cluster's host threads.  Idempotent; a closed context
        refuses new work with a :class:`~repro.errors.ClusterError`, its
        books stay readable.  Optional: a context that is simply dropped
        takes its threads with it."""
        self.lanes.close()

    # -- topology -------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """The static slot count ``K``."""
        return self.config.num_workers

    def workers(self) -> tuple[int, ...]:
        """Every member id the timeline ever admits (``0..K-1`` on a static
        cluster).

        Accounting keyed off this set (flop sources, cache charges) uses
        stable member ids; a departed member keeps its engine -- and its
        books -- so charges and discharges always find the same tracker.
        """
        return self.pool.members_ever

    def engine_for_worker(self, worker: int) -> LocalEngine:
        """The engine of one member id (see :meth:`workers`)."""
        engine = self._member_engines.get(worker)
        if engine is None:
            raise ClusterError(f"unknown cluster member id {worker}")
        return engine

    @property
    def engines(self) -> list[LocalEngine]:
        """Slot index -> the engine of the member owning that slot *now*.

        Resolving through the pool's current assignment is what makes a
        membership change take effect without moving any partition.  This
        builds a list per access; hot paths ask
        :meth:`engine_for_partition` for the one engine they need.
        """
        return [self.engine_for_partition(slot) for slot in range(self.num_workers)]

    def worker_for_partition(self, partition_index: int) -> int:
        """The slot hosting a given partition index."""
        if partition_index < 0:
            raise ClusterError(f"negative partition index {partition_index}")
        return partition_index % self.num_workers

    def engine_for_partition(self, partition_index: int) -> LocalEngine:
        """The local engine of the member hosting ``partition_index``."""
        slot = self.worker_for_partition(partition_index)
        return self._member_engines[self.pool.member_for_slot(slot)]

    # -- data ingestion ---------------------------------------------------------

    def parallelize(
        self,
        items: Iterable[tuple[object, object]],
        partitioner: Partitioner,
    ) -> RDD:
        """Create an RDD from driver-side key/value pairs.

        Modelling a load from a distributed filesystem: the data lands
        directly in the scheme the partitioner dictates, with no *network*
        charge (the paper likewise does not charge initial HDFS reads as
        cluster communication -- only repartitions of live matrices count).
        """
        from repro.rdd.rdd import RDD  # local import to avoid a cycle

        partitions: list[list[tuple[object, object]]] = [
            [] for __ in range(partitioner.num_partitions)
        ]
        for key, value in items:
            partitions[partitioner.partition_for(key)].append((key, value))
        return RDD(self, partitions, partitioner)

    # -- block cache accounting -------------------------------------------------

    def cached_bytes(self, matrix: DistributedMatrix) -> dict[int, int]:
        """Member id -> model bytes of the matrix's blocks resident there
        (a Broadcast matrix charges every member a full copy).

        Resident bytes aggregate onto the slots' *current owner members* (a
        member owning several slots is charged for all of them), so charge
        and discharge land on the same members' trackers.
        """
        out: dict[int, int] = {}
        for slot in range(self.pool.slots):
            nbytes = _slot_bytes(matrix, slot)
            if nbytes:
                member = self.pool.member_for_slot(slot)
                out[member] = out.get(member, 0) + nbytes
        return out

    def charge_cache(self, worker: int, nbytes: int) -> None:
        """Charge cached bytes against one member's memory tracker; may
        raise :class:`~repro.errors.MemoryLimitExceeded`."""
        self.engine_for_worker(worker).tracker.allocate(nbytes)

    def discharge_cache(self, worker: int, nbytes: int) -> None:
        self.engine_for_worker(worker).tracker.release(nbytes)

    # -- membership -------------------------------------------------------------

    def begin_node(self, node: StageNode, resources: ResourceManager) -> None:
        """Apply every timeline event due before this node's stage.

        Called by the executor at the start of each stage-graph node (runs
        with a timeline dispatch serially, so stages see transitions in a
        deterministic order).  Safe to call again on a retried node: each
        transition commits only after its side effects succeeded.
        """
        while True:
            transition = self.pool.next_transition(node.stage)
            if transition is None:
                return
            if transition.event.kind == "leave":
                self._apply_leave(transition, resources)
            else:
                # The joiners' traffic belongs to the stage that ships it,
                # in the ledger as in the stage's trace context.
                with self.ledger.scope(f"stage-{node.stage}"):
                    self._apply_join(transition, resources)
            self.pool.commit(transition)

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
        new_owner = self.pool.assignment_for(transition.members_after)
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
            self.transfer("rebalance", moved_bytes, links)
            self.rebalance_bytes += moved_bytes
        if replica_bytes:
            self.transfer("rebalance", replica_bytes)
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
        pool = self.pool
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

    # -- execution backend -----------------------------------------------------

    def make_backend(self) -> SimulatedBackend:
        """The kernels' :class:`~repro.runtime.backend.SimulatedBackend`
        over this context (imported lazily: the runtime sits above the rdd
        layer)."""
        from repro.runtime.backend import SimulatedBackend

        return SimulatedBackend(self)

    # -- fault injection -------------------------------------------------------

    def install_chaos(self, engine: ChaosEngine | None) -> None:
        """Install (or clear, with ``None``) a fault-injection engine.

        The engine is consulted before every metered transfer and at the
        shuffle service's entry; an injected fault surfaces as a raised
        :class:`~repro.errors.FaultInjected` subclass.
        """
        self.chaos = engine

    # -- communication ------------------------------------------------------------

    def transfer(
        self,
        kind: str,
        nbytes: int,
        links: dict[tuple[int, int], int] | None = None,
    ) -> None:
        """Meter a cross-worker transfer in the ledger and the clock.

        ``links`` optionally attributes the bytes to (source worker, target
        worker) pairs; the chaos hook and the clock still fire exactly once
        on the total, so per-link attribution never perturbs fault
        determinism or simulated time.
        """
        if self.chaos is not None:
            self.chaos.on_transfer(kind, nbytes)  # may raise an injected fault
        if links:
            for link in sorted(links):
                self.ledger.record(kind, links[link], link)
        else:
            self.ledger.record(kind, nbytes)
        self.clock.advance_network(nbytes)

    # -- clock integration -----------------------------------------------------------

    def flops_snapshot(self) -> dict[int, tuple[int, int]]:
        """Per-member ``(dense_flops, sparse_flops)`` counters right now."""
        return {
            member: (engine.stats.dense_flops, engine.stats.sparse_flops)
            for member, engine in self._member_engines.items()
        }

    def charge_compute_since(self, snapshot: dict[int, tuple[int, int]]) -> None:
        """Advance the clock by the compute performed since ``snapshot``,
        modelled as one synchronised parallel phase."""
        current = self.flops_snapshot()
        dense = {w: current[w][0] - snapshot.get(w, (0, 0))[0] for w in current}
        sparse = {w: current[w][1] - snapshot.get(w, (0, 0))[1] for w in current}
        self.clock.advance_compute(dense, sparse, self.config.threads_per_worker)

    # -- reporting ----------------------------------------------------------------

    def peak_memory_bytes(self) -> int:
        """The largest per-worker peak (the paper reports per-node memory)."""
        return max(self.peak_memory_by_worker())

    def peak_memory_by_worker(self) -> list[int]:
        """Per-member peak model bytes, in :meth:`workers` order (for
        balance inspection)."""
        return [
            engine.tracker.peak_bytes for engine in self._member_engines.values()
        ]


def _slot_bytes(matrix: DistributedMatrix, slot: int) -> int:
    """Model bytes of the matrix's blocks resident on one slot."""
    return sum(model_sizeof(block) for block in matrix.worker_grid(slot).values())
