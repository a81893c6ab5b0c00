"""SystemML-S: the paper's primary baseline (Section 6.1).

SystemML-S is SystemML's planner ported to Spark with DMac's local engine,
so "the only difference between SystemML-S and DMac is that SystemML-S
generates the execution plan without utilizing matrix dependency".  Here
that difference is the whole of the code: SystemML-S is the DMac planner
with the dependency-blind cost, and its plan runs on the same registry
kernels and backend as DMac's.  Operationally (Section 6.2):

* intermediates are cached hash-partitioned, so *every* use of a matrix
  pays a repartition to the scheme the operator strategy needs -- even when
  the producing operator happened to emit a compatible layout, and even for
  a transposed read ("SystemML needs to repartition it for W.t as well");
* every Broadcast-scheme requirement re-broadcasts the matrix ("SystemML-S
  needs to broadcast matrix R twice");
* strategy choice uses the same catalog and size estimates as DMac, but
  input costs are always ``|A|`` (Row/Column requirement) or ``N x |A|``
  (Broadcast requirement) -- there are no free dependencies.

Obliviousness is modelled physically: before each use the cached matrix is
viewed as hash-scattered (an unmetered relabelling -- the cache layout
fiction) and then shuffled to the required scheme with full metering.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.plan import MatrixInstance
from repro.core.planner import DMacPlanner
from repro.lang.program import MatrixProgram, Operand
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from repro.rdd.partitioner import HashPartitioner
from repro.rdd.rdd import RDD
from repro.rdd.shuffle import shuffle
from repro.runtime.backend import SimulatedBackend
from repro.runtime.executor import ExecutionResult, ExecutionState
from repro.runtime.graph import run_block_size
from repro.runtime.registry import spec_for


class SystemMLSPlanner(DMacPlanner):
    """Algorithm 1 without matrix dependency: the plan has one step per
    operator and no extended steps; each compute step names the instance
    its strategy requires and the executor pays for it on every read."""

    def _cheapest_cost(self, operand: Operand, required: Scheme) -> int:
        nbytes = self.estimator.nbytes(operand.name)
        return self.num_workers * nbytes if required is Scheme.BROADCAST else nbytes

    def _satisfy(self, operand: Operand, required: Scheme) -> MatrixInstance:
        return MatrixInstance(operand.name, operand.transposed, required)

    def _satisfy_any_scheme(self, operand: Operand) -> MatrixInstance:
        produced, __, __ = self._best_instance(operand, Scheme.ROW)
        return produced  # aggregates read the cached copy as-is


class _ObliviousCache:
    """The kernels' ``state.resources``: each matrix stays cached as its
    producer left it, and every read re-lays it out from that copy --
    unless ``as_is`` is set (aggregates accept any scheme)."""

    def __init__(self, backend: SimulatedBackend) -> None:
        self.backend = backend
        self.matrices: dict[str, DistributedMatrix] = {}
        self.as_is = False

    def publish(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        self.matrices[instance.name] = matrix

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        matrix = self.matrices[instance.name]
        if self.as_is:
            return matrix
        if instance.transposed:
            # SystemML-S repartitions for the transposed view as well; the
            # element movement happens in the oblivious shuffle below, the
            # local flip is part of the reduce side.
            matrix = self.backend.extended("transpose", matrix, matrix.scheme.opposite)
        if instance.scheme is not Scheme.BROADCAST:
            return _oblivious_repartition(matrix, instance.scheme)
        if matrix.scheme is Scheme.BROADCAST:
            return matrix
        return self.backend.extended("broadcast", matrix, Scheme.BROADCAST)


def _oblivious_repartition(matrix: DistributedMatrix, required: Scheme) -> DistributedMatrix:
    """Shuffle into ``required`` as if the source were hash-scattered.

    The cached copy is *viewed* as living under Spark's default hash
    partitioning (a relabelling that moves nothing -- the planner simply
    has no scheme information to exploit); the metered shuffle to the
    required scheme then pays the full repartition the paper describes.
    """
    context = matrix.context
    if matrix.scheme is Scheme.BROADCAST:
        # A broadcast copy is everywhere; take worker 0's replica as the
        # canonical shard set before scattering.
        records = sorted(matrix.worker_grid(0).items())
    else:
        records = sorted(matrix.rdd.collect())
    hasher = HashPartitioner(context.num_workers)
    scattered: list[list] = [[] for __ in range(context.num_workers)]
    for key, block in records:
        scattered[hasher.partition_for(key)].append((key, block))
    partitioner = required.partitioner(context.num_workers)
    rdd = RDD(context, shuffle(context, scattered, partitioner), partitioner)
    return matrix.with_scheme_rdd(rdd, required)


class SystemMLSExecutor:
    """Plans and executes a program the SystemML-S way: one operator at a
    time, each charged its own compute phase."""

    def __init__(self, context: ClusterContext, block_size: int | None = None) -> None:
        self.context = context
        self.block_size = block_size

    def execute(
        self,
        program: MatrixProgram,
        inputs: dict[str, np.ndarray] | None = None,
    ) -> ExecutionResult:
        context = self.context
        plan = SystemMLSPlanner(program, context.num_workers).plan()
        cache = _ObliviousCache(context.make_backend())
        block_size = run_block_size(context.config, program, self.block_size)
        state = ExecutionState(
            context, cache.backend, cache, inputs or {}, block_size, labels=()
        )
        # A stage per compute step: sources and scalar steps launch none.
        stages = max(sum(1 for s in plan.steps if s.inputs() and s.output_instance()), 1)

        bytes_before = context.ledger.snapshot()
        window = context.clock.begin_window()
        wall_start = time.perf_counter()
        try:
            for step in plan.steps:
                snapshot = context.flops_snapshot()
                cache.as_is = step.output_instance() is None  # a scalar step
                spec_for(step).kernel(step, state)
                context.charge_compute_since(snapshot)
            context.clock.advance_stage_overhead(stages)
        finally:
            context.clock.end_window(window)
        matrices = {name: cache.matrices[name].to_numpy() for name in program.outputs}
        scalars = state.scalars_snapshot()
        return ExecutionResult(
            matrices=matrices,
            scalars={name: scalars[name] for name in program.scalar_outputs},
            comm_bytes=context.ledger.snapshot() - bytes_before,
            time=window,
            num_stages=stages,
            peak_memory_bytes=context.peak_memory_bytes(),
            wall_seconds=time.perf_counter() - wall_start,
        )
