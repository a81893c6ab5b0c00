"""Static per-worker peak-memory prediction.

Mirrors, ahead of execution, exactly what the local engines' memory
trackers charge at run time:

* **Transients** -- only the three charging kernel families register block
  grids with a worker's tracker for the duration of the operation: matmul
  (both operand grids + the result, plus accumulation partials; a ``bmm``
  holds both replicas and a whole replica of its result), cellwise
  (both operands + result) and scalar-matrix (operand + result, with the
  zero-fill densification ``add``/``subtract`` performs on sparse
  operands).  Sources, extended operators, unary maps, row/col aggregations
  and driver aggregates move or create blocks without tracker charges, so
  they predict zero -- matching the meter, not an idealised cost model.
* **Pins** -- every ``plan.cache_pins`` instance is charged to the
  BlockCache when its first producer publishes and stays resident until
  the run ends.

Only stage-graph nodes the happens-before order leaves unordered run at
once, at most ``C`` of them: the bound is the heaviest **antichain** of at
most ``C`` nodes -- their transients (a node weighs its heaviest step)
plus every pin not first published strictly below one of them.  The empty
antichain is the end of the run; ``C = 1`` is a serial run.

Every matrix is sized by one :class:`~repro.core.cost.CostModel`'s
Equation-2 quotes (:meth:`~repro.core.cost.CostModel.share_bytes`,
:meth:`~repro.core.cost.CostModel.matrix_bytes`): the program's declared
dimensions -- on any plan that lints, the shape analysis' answer (rule
DM101) -- and the Section-5.1 worst-case sparsity, under the engine's
per-block storage choice.  A name the program does not declare weighs
nothing; a name with no sparsity estimate is sized dense.  A 1-D share
assumes non-zeros spread evenly over the blocks, which a skewed sparse
input breaks by a few non-zeros; once a run has cut its sources the
executor reports :meth:`MemoryPrediction.bound_as_cut`, which charges each
source at what its fullest worker holds.  ``live_peak_bytes`` -- the high
water of every instance still to be read (:func:`solve_liveness`) -- is
informational.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.blocks.memory import dense_block_model_bytes, program_block_size
from repro.core.cost import CostModel
from repro.core.plan import (
    CellwiseStep,
    FusedCellwiseStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    ScalarMatrixStep,
    SourceStep,
    Step,
)
from repro.runtime.graph import StageGraph
from repro.verify.hazards import ancestor_masks

#: Antichains the search visits before it answers its root's bound, all
#: pins plus the ``C`` heaviest node transients (still sound).
SEARCH_VISITS = 20_000


@dataclasses.dataclass(frozen=True)
class StepFootprint:
    """One step's predicted tracker charge while it runs."""

    index: int
    step: str
    transient_bytes: int
    pinned_bytes: int  # pins published up to this step, in plan order
    #: The source matrices (loads) the transient charges at their share.
    sources: Tuple[MatrixInstance, ...] = ()
    node: int = 0  # the stage-graph node that runs it


@dataclasses.dataclass(frozen=True)
class MemoryPrediction:
    """A sound per-worker high-water-mark bound for one plan."""

    pinned_bytes: int  # full cache-pin working set per worker
    transient_peak_bytes: int  # largest single-step transient
    live_peak_bytes: int  # liveness high water of all resident instances
    block_size: int
    concurrency: int
    footprints: Tuple[StepFootprint, ...]
    sources: Tuple[Tuple[MatrixInstance, int], ...] = ()  # (load, its quote)
    pins: Tuple[Tuple[MatrixInstance, int, int], ...] = ()  # (pin, its quote, its node)
    ancestors: Tuple[int, ...] = ()  # per node, a mask of its ancestors
    peak_bytes: int = dataclasses.field(init=False)  # the heaviest antichain

    def __post_init__(self) -> None:
        object.__setattr__(self, "peak_bytes", self._heaviest({}))

    def bound_as_cut(self, held: Mapping[MatrixInstance, int]) -> int:
        """The bound with each source charged at what ``held`` says its
        fullest worker holds once it is cut, where that is more than its
        quote: non-zeros need not spread evenly over the blocks, and a
        source's blocks are known once it is loaded.  Exact: the excess
        weighs on every step that charges the source and on its pin."""
        excess = {
            source: held[source] - quote
            for source, quote in self.sources
            if held.get(source, 0) > quote
        }
        return self._heaviest(excess) if excess else self.peak_bytes

    def _heaviest(self, excess: Mapping[MatrixInstance, int]) -> int:
        weights = [0] * len(self.ancestors)
        for f in self.footprints:
            charge = f.transient_bytes + sum(excess.get(s, 0) for s in f.sources)
            weights[f.node] = max(weights[f.node], charge)
        pinned = [0] * len(self.ancestors)
        for pin, share, node in self.pins:
            pinned[node] += share + excess.get(pin, 0)
        return heaviest_antichain(weights, pinned, self.ancestors, self.concurrency)

    def to_json_dict(self) -> Dict[str, object]:
        heaviest = sorted(self.footprints, key=lambda f: -f.transient_bytes)[:8]
        return {
            "peak_bytes": self.peak_bytes,
            "pinned_bytes": self.pinned_bytes,
            "transient_peak_bytes": self.transient_peak_bytes,
            "live_peak_bytes": self.live_peak_bytes,
            "block_size": self.block_size,
            "concurrency": self.concurrency,
            "heaviest_steps": [
                {
                    "plan_index": f.index,
                    "step": f.step,
                    "transient_bytes": f.transient_bytes,
                    "pinned_bytes": f.pinned_bytes,
                }
                for f in heaviest
                if f.transient_bytes
            ],
        }


def heaviest_antichain(
    weights: Sequence[int], pinned: Sequence[int], ancestors: Sequence[int], width: int
) -> int:
    """Max over antichains of at most ``width`` nodes of their ``weights``
    plus the ``pinned`` bytes of every node not strictly below one of them:
    branch and bound, heaviest node first."""
    nodes = range(len(ancestors))
    below = [sum(1 << m for m in nodes if ancestors[m] >> n & 1) for n in nodes]
    heavy = sorted((n for n in nodes if weights[n] > 0), key=lambda n: -weights[n])
    best = sum(pinned)
    visits = 0

    def grow(free: List[int], room: int, covered: int, value: int) -> None:
        nonlocal best, visits
        best = max(best, value)
        for i, node in enumerate(free if room else ()):
            reach = value + sum(weights[n] for n in free[i : i + room])
            if reach <= best or visits > SEARCH_VISITS:
                return
            visits += 1
            fresh = below[node] & ~covered
            lost = sum(pinned[n] for n in nodes if fresh >> n & 1)
            related = below[node] | ancestors[node]
            rest = [n for n in free[i + 1 :] if not related >> n & 1]
            grow(rest, room - 1, covered | fresh, value + weights[node] - lost)

    grow(heavy, width, 0, best)
    if visits > SEARCH_VISITS:
        return sum(pinned) + sum(weights[n] for n in heavy[:width])
    return best


def _scalar_matrix_densifies(step: ScalarMatrixStep) -> bool:
    """Does ``add``/``subtract`` zero-fill sparse operands?  A scalar read
    from the driver at run time is conservatively assumed non-zero."""
    if step.op.op not in ("add", "subtract"):
        return False
    scalar = step.op.scalar
    return isinstance(scalar, str) or scalar != 0


def _transient_bytes(
    step: Step,
    cost: CostModel,
    block_size: int,
    threads_per_worker: int,
    inplace: bool,
) -> int:
    """Tracker bytes this step holds on one worker while it runs."""
    share = cost.share_bytes
    stored = sum(share(instance, block_size) for instance in _charged(step))
    if isinstance(step, MatMulStep):
        if step.strategy == "cpmm":
            # Every worker materialises a full dense partial of C before
            # the aggregation shuffle merges strips on the consumers.
            result = cost.matrix_bytes(step.output, block_size, dense=True)
        else:  # a 1-D strip, or for ``bmm`` a whole replica
            result = share(step.output, block_size, dense=True)
        inner_blocks = max(1, math.ceil(cost.dims(step.left)[1] / block_size))
        # Every partial is one dense result block held for one inner fold,
        # so all of them together weigh ``result * inner_blocks`` -- what
        # the Buffer strategy holds until the merge; the In-Place engine
        # keeps at most one in flight per lane (<= L lanes).
        partials = result * inner_blocks
        if inplace:
            in_flight = threads_per_worker * dense_block_model_bytes(block_size, block_size)
            partials = min(in_flight, partials)
        return stored + result + partials
    if isinstance(step, ScalarMatrixStep) and _scalar_matrix_densifies(step):
        # Zero-fill: the registered operand grid carries its sparse blocks
        # plus explicit dense zero blocks for absent keys.
        return (
            stored
            + share(step.source, block_size, dense=True)
            + share(step.output, block_size, dense=True)
        )
    return stored


def _charged(step: Step) -> Tuple[MatrixInstance, ...]:
    """The grids a step registers with the tracker at their stored share
    while it runs: a product's operands, both operands and the result of a
    cellwise step -- for a fused one every external operand and the final
    result; chain intermediates are per-block temporaries that never reach
    the tracker -- and a scalar-matrix step's operand, plus its result unless zero-fill
    densifies it.  Sources, extended operators, unary maps, row/col
    aggregations and driver aggregates never register grids."""
    if isinstance(step, MatMulStep):
        return (step.left, step.right)
    if isinstance(step, (CellwiseStep, FusedCellwiseStep)):
        return (*step.inputs(), step.output)
    if isinstance(step, ScalarMatrixStep):
        if _scalar_matrix_densifies(step):
            return (step.source,)
        return (step.source, step.output)
    return ()


def solve_liveness(plan: Plan) -> Tuple[FrozenSet[MatrixInstance], ...]:
    """``live_after[i]``: instances some step after ``i`` (or a program
    output materialisation) still reads.  One reverse sweep -- the
    per-instance dependency graph is acyclic by construction."""
    live: set[MatrixInstance] = set(plan.outputs.values())
    live_after: list[FrozenSet[MatrixInstance]] = [frozenset()] * len(plan.steps)
    for index in range(len(plan.steps) - 1, -1, -1):
        step = plan.steps[index]
        live_after[index] = frozenset(live)
        output = step.output_instance()
        if output is not None:
            live.discard(output)
        live.update(step.inputs())
    return tuple(live_after)


def predict_peak_memory(
    plan: Plan,
    *,
    num_workers: int,
    threads_per_worker: int = 8,
    block_size: Optional[int] = None,
    inplace: bool = True,
    max_concurrent_stages: Optional[int] = None,
    estimation_mode: str = "worst",
    graph: Optional[StageGraph] = None,
) -> MemoryPrediction:
    """Predict the per-worker tracker high-water mark for a plan.

    Defaults mirror the executor: automatic Equation-3 block size, the
    In-Place accumulation engine, and the scheduler's default stage
    concurrency.  ``max_concurrent_stages=1`` bounds a serial run.
    """
    graph = graph or StageGraph.from_plan(plan)
    if block_size is None:
        block_size = program_block_size(plan.program.dims, num_workers, threads_per_worker)
    cost = CostModel(plan.program, num_workers, estimation_mode)
    transients = [
        _transient_bytes(step, cost, block_size, threads_per_worker, inplace) for step in plan.steps
    ]

    # A pin is resident from its first producer's publish to the end.
    admitted = [0] * len(plan.steps)
    pins = []
    for pin in plan.cache_pins:
        at = graph.defuse.first(pin) or 0
        share = cost.share_bytes(pin, block_size)
        admitted[at] += share
        pins.append((pin, share, graph.node_of_step[at]))
    pin_prefix = list(itertools.accumulate(admitted))

    sources = {step.output for step in plan.steps if isinstance(step, SourceStep)}
    footprints = tuple(
        StepFootprint(
            index=index,
            step=str(step),
            transient_bytes=transients[index],
            pinned_bytes=pin_prefix[index],
            sources=tuple(i for i in _charged(step) if i in sources),
            node=graph.node_of_step[index],
        )
        for index, step in enumerate(plan.steps)
    )
    from repro.runtime.scheduler import DEFAULT_MAX_CONCURRENT_STAGES

    limit = max_concurrent_stages or DEFAULT_MAX_CONCURRENT_STAGES
    concurrency = max(1, min(limit, len(graph.nodes)))

    # Liveness high water under refcounting: informational, not charged.
    live_after = solve_liveness(plan)
    weight = {i: cost.share_bytes(i, block_size) for i in set().union(*live_after)}
    live_peak = max((sum(map(weight.__getitem__, live)) for live in live_after), default=0)

    return MemoryPrediction(
        pinned_bytes=sum(share for __, share, ___ in pins),
        transient_peak_bytes=max(transients, default=0),
        live_peak_bytes=live_peak,
        block_size=block_size,
        concurrency=concurrency,
        footprints=footprints,
        sources=tuple((s, cost.share_bytes(s, block_size)) for s in sorted(sources, key=str)),
        pins=tuple(pins),
        ancestors=tuple(ancestor_masks(graph)),
    )
