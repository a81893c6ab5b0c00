"""The stage graph: the unit of scheduling for the concurrent runtime.

``schedule_stages`` labels every step with a stage *number*, but numbers
alone describe a chain -- stage 2 after stage 1 after nothing.  The paper's
point (Section 4.3 / 5.2) is stronger: a stage is a communication-free
island of the plan DAG, and islands that do not depend on each other can be
"perfectly dispatched to the nodes in the cluster and executed
independently".  :class:`StageGraph` recovers that structure:

* steps sharing a stage number are split into **connected components** of
  the intra-stage dependency edges -- two same-numbered steps with no data
  flowing between them land in different nodes and may run concurrently;
* every node records the nodes it **depends on** (matrix and driver-scalar
  producers), giving the scheduler its ready set;
* the **critical path** (the dependency chain with the most steps) is what
  the simulated clock charges under concurrent execution.

Construction is total and read-only: a malformed plan (instances consumed
before production, hand-corrupted stage numbers) still yields a graph, and
:meth:`StageGraph.stage_violations` reports exactly the wide-edge defects
the lint's DM103 rule publishes.
"""

from __future__ import annotations

import collections
import dataclasses
import weakref
from typing import TYPE_CHECKING, Iterator

from repro.blocks.memory import program_block_size
from repro.core.defuse import DefUse
from repro.core.plan import MatrixInstance, Plan
from repro.core.stages import schedule_stages
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.config import ClusterConfig
    from repro.lang.program import MatrixProgram
    from repro.rdd.context import ClusterContext


@dataclasses.dataclass(frozen=True)
class StageNode:
    """One schedulable unit: a communication-free island of the plan."""

    index: int  # node id; indices are a valid topological order
    stage: int  # the paper's stage number (shared by all steps)
    steps: tuple[int, ...]  # plan step indices, ascending
    deps: tuple[int, ...]  # node indices this node waits on
    dependents: tuple[int, ...]  # node indices waiting on this node


class StageGraph:
    """Inter-stage dependency DAG built from a staged plan."""

    def __init__(
        self,
        plan: Plan,
        nodes: list[StageNode],
        step_deps: dict[int, frozenset[int]],
        node_of_step: dict[int, int],
        available_stage: dict[MatrixInstance, int],
        defuse: DefUse | None = None,
    ) -> None:
        self.plan = plan
        self.nodes = nodes
        #: plan-step index -> producer plan-step indices it consumes
        self.step_deps = step_deps
        #: plan-step index -> index of the node containing it
        self.node_of_step = node_of_step
        #: stage each instance becomes available in (first producer wins)
        self.available_stage = available_stage
        #: who produces and reads what; rides here because whoever may keep
        #: a graph keeps it under :meth:`Plan.stamp`, which sees every step
        self.defuse = defuse

    # -- construction -------------------------------------------------------

    @classmethod
    def from_plan(cls, plan: Plan) -> "StageGraph":
        """Build the graph; stage-schedules the plan first if it never was."""
        if plan.num_stages == 0:
            schedule_stages(plan)
        steps = plan.steps

        # A step depends on the first producer of each thing it reads -- if
        # that producer comes before it (a later one is DM107's finding).
        defuse = DefUse.of(plan)
        reads_from: list[set[int]] = [set() for __ in steps]
        for producers, consumers in (
            (defuse.producers, defuse.consumers),
            (defuse.scalar_producers, defuse.scalar_consumers),
        ):
            for key, made in producers.items():
                for index in consumers.get(key, ()):
                    if made[0] < index:
                        reads_from[index].add(made[0])
        step_deps = {i: frozenset(found) for i, found in enumerate(reads_from)}
        available: dict[MatrixInstance, int] = {}
        for instance, made in defuse.producers.items():
            step = steps[made[0]]
            available[instance] = step.stage + (1 if step.communicates else 0)

        # Union steps connected by an intra-stage dependency edge: those must
        # run in one dispatch.  Cross-stage edges become graph edges instead.
        parent = list(range(len(steps)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for index, deps in step_deps.items():
            for j in deps:
                if steps[j].stage == steps[index].stage:
                    parent[find(index)] = find(j)

        groups: dict[int, list[int]] = {}
        for index in range(len(steps)):
            groups.setdefault(find(index), []).append(index)
        members = sorted(groups.values(), key=lambda g: g[0])

        group_of_step = {s: g for g, grp in enumerate(members) for s in grp}
        group_deps: list[set[int]] = [set() for __ in members]
        for index, deps in step_deps.items():
            for j in deps:
                if group_of_step[j] != group_of_step[index]:
                    group_deps[group_of_step[index]].add(group_of_step[j])

        order = _topo_order(members, group_deps)
        node_index = {g: i for i, g in enumerate(order)}
        dependents: list[list[int]] = [[] for __ in members]
        for g, deps in enumerate(group_deps):
            for d in deps:
                dependents[d].append(g)

        nodes = [
            StageNode(
                index=i,
                stage=steps[members[g][0]].stage,
                steps=tuple(members[g]),
                deps=tuple(sorted(node_index[d] for d in group_deps[g])),
                dependents=tuple(sorted(node_index[d] for d in dependents[g])),
            )
            for i, g in enumerate(order)
        ]
        node_of_step = {s: node_index[g] for s, g in group_of_step.items()}
        return cls(plan, nodes, step_deps, node_of_step, available, defuse)

    # -- structure ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(node.deps) for node in self.nodes)

    def roots(self) -> list[StageNode]:
        """Nodes with no dependencies (ready immediately)."""
        return [node for node in self.nodes if not node.deps]

    def critical_path(self) -> list[int]:
        """Node indices of the dependency chain carrying the most steps."""
        if not self.nodes:
            return []
        weight = [len(node.steps) for node in self.nodes]
        best = list(weight)  # heaviest chain ending at each node
        choice: list[int | None] = [None] * len(self.nodes)
        for node in self.nodes:  # indices are topological
            for dep in node.deps:
                candidate = best[dep] + weight[node.index]
                # strict improvement, lowest-index tie-break: deterministic
                if candidate > best[node.index]:
                    best[node.index] = candidate
                    choice[node.index] = dep
        tail = max(range(len(self.nodes)), key=lambda i: (best[i], -i))
        path: list[int] = []
        cursor: int | None = tail
        while cursor is not None:
            path.append(cursor)
            cursor = choice[cursor]
        return list(reversed(path))

    def stage_violations(self) -> Iterator[tuple[int, MatrixInstance, int]]:
        """``(step index, instance, available stage)`` for every input that
        only becomes available -- through a communicating edge -- in the same
        or a later stage than its consumer (the lint's DM103 defect)."""
        for index, step in enumerate(self.plan.steps):
            for instance in step.inputs():
                available = self.available_stage.get(instance)
                if available is not None and available > step.stage:
                    yield (index, instance, available)

    # -- presentation -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready structure (the CLI's ``repro stages --format json``)."""
        critical = self.critical_path()
        return {
            "num_stages": self.plan.num_stages,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "critical_path": critical,
            "critical_path_steps": sum(len(self.nodes[i].steps) for i in critical),
            "nodes": [
                {
                    "index": node.index,
                    "stage": node.stage,
                    "deps": list(node.deps),
                    "steps": [
                        {
                            "plan_index": i,
                            "description": str(self.plan.steps[i]),
                            "communicates": self.plan.steps[i].communicates,
                        }
                        for i in node.steps
                    ],
                }
                for node in self.nodes
            ],
        }

    def describe(self) -> str:
        """Human-readable listing: topo order, per-node steps, critical path."""
        critical = self.critical_path()
        on_path = set(critical)
        lines = [
            f"stage graph: {self.num_nodes} nodes, {self.num_edges} edges, "
            f"{self.plan.num_stages} stages"
        ]
        for node in self.nodes:
            deps = ", ".join(str(d) for d in node.deps) or "-"
            marker = " *" if node.index in on_path else ""
            lines.append(
                f"node {node.index} [stage {node.stage}] deps: {deps}{marker}"
            )
            for i in node.steps:
                step = self.plan.steps[i]
                comm = " [comm]" if step.communicates else ""
                lines.append(f"  {step}{comm}")
        path = " -> ".join(str(i) for i in critical) or "-"
        total = sum(len(self.nodes[i].steps) for i in critical)
        lines.append(f"critical path (* above): {path} ({total} steps)")
        return "\n".join(lines)


#: What a run of one plan under one sizing reads besides the plan: the stage
#: graph (its ``plan`` a weak proxy -- a record never keeps its plan alive),
#: the resolved block size, the MemoryPrediction (``None`` for a plan it
#: cannot size) and ``str(step)`` by plan index.
_Prepared = collections.namedtuple("_Prepared", "graph block_size prediction labels")


def run_block_size(
    config: ClusterConfig, program: MatrixProgram, block_size: int | None = None
) -> int:
    """The block size a run of ``program`` cuts its matrices into: the one
    asked for, else the configured one, else the program's automatic one."""
    return (
        block_size
        or config.block_size
        or program_block_size(program.dims, config.num_workers, config.threads_per_worker)
    )


def prepare(
    context: ClusterContext,
    plan: Plan,
    *,
    block_size: int | None = None,
    max_concurrent_stages: int | None = None,
    estimation_mode: str = "worst",
    strassen: bool = False,
) -> _Prepared:
    """The plan-static facts of a run, derived here and kept on ``context``
    while the plan lives and is not edited; ``block_size`` and
    ``max_concurrent_stages`` default to the configured ones.  A record
    is keyed by plan identity plus every argument the prediction depends on
    and served only while :meth:`Plan.stamp` -- taken after scheduling, which
    writes ``step.stage`` -- still equals the one it was derived under
    (docs/architecture.md, "A plan is prepared once")."""
    from repro.verify.memory import predict_peak_memory  # verify sits above

    if plan.num_stages == 0:
        schedule_stages(plan)
    config = context.config
    sizing = dict(
        num_workers=config.num_workers,
        threads_per_worker=config.threads_per_worker,
        block_size=run_block_size(config, plan.program, block_size),
        inplace=config.inplace,
        max_concurrent_stages=max_concurrent_stages or config.max_concurrent_stages,
        estimation_mode=estimation_mode,
        strassen=strassen,
        strassen_min_size=config.strassen_min_size,  # read only under strassen
    )
    key, stamp, table = tuple(sizing.values()), plan.stamp(), context.prepared
    held = table.get(id(plan))
    if held is None or held[0] != stamp:
        gone = weakref.ref(plan, lambda __, k=id(plan): table.pop(k, None))
        held = table[id(plan)] = (stamp, {}, gone)  # the entry dies with the plan
    if key not in held[1]:
        graph = StageGraph.from_plan(plan)
        graph.plan = weakref.proxy(plan)
        try:
            prediction = predict_peak_memory(plan, graph=graph, **sizing)
        except ReproError:
            prediction = None
        labels = tuple(map(str, plan.steps))
        held[1][key] = _Prepared(graph, sizing["block_size"], prediction, labels)
    return held[1][key]


def _topo_order(members: list[list[int]], group_deps: list[set[int]]) -> list[int]:
    """Kahn's algorithm over step groups, smallest-first-step tie-break.

    Defensive: if the group graph has a cycle (only possible for malformed,
    hand-corrupted plans the lint inspects), the stragglers are appended in
    plan order so the graph stays total.
    """
    remaining = {g: len(deps) for g, deps in enumerate(group_deps)}
    dependents: dict[int, list[int]] = {g: [] for g in remaining}
    for g, deps in enumerate(group_deps):
        for d in deps:
            dependents[d].append(g)
    ready = sorted((g for g, n in remaining.items() if n == 0),
                   key=lambda g: members[g][0])
    order: list[int] = []
    while ready:
        g = ready.pop(0)
        order.append(g)
        del remaining[g]
        freed = []
        for h in dependents[g]:
            if h in remaining:
                remaining[h] -= 1
                if remaining[h] == 0:
                    freed.append(h)
        if freed:
            ready.extend(freed)
            ready.sort(key=lambda g: members[g][0])
    order.extend(sorted(remaining, key=lambda g: members[g][0]))
    return order
