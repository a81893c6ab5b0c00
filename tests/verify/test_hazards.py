"""Happens-before hazard detection: the PR-5 bug class (an ordering edge
the stage graph fails to record) must be caught statically, double
publishes must be flagged only when the values actually conflict, and
clean planner output must verify hazard-free."""

import dataclasses

from repro import ClusterConfig, DMacSession, Scheme
from repro.core.plan import CellwiseStep, Plan, SourceStep
from repro.lang.program import CellwiseOp, ProgramBuilder
from repro.core.plan import MatrixInstance
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload
from repro.runtime.graph import StageGraph
from repro.verify import (
    DOUBLE_PUBLISH,
    READ_BEFORE_PUBLISH,
    ancestor_masks,
    find_hazards,
    happens_before,
)

from tests.verify._workloads import SMALL_ARGS, small_workload


def _plan(program):
    return DMacSession(ClusterConfig(num_workers=4)).plan(program)


def _scalar_loop_plan():
    pb = ProgramBuilder()
    A = pb.random("A", (24, 24))
    s = pb.scalar("s", A.sum())
    pb.output(pb.assign("B", A * s))
    return _plan(pb.build())


def test_clean_planner_output_has_no_hazards():
    for app in ALL_APPS:
        program = build_workload(app, WorkloadParams(**SMALL_ARGS)).program
        for optimize in (False, True):
            with DMacSession(ClusterConfig(num_workers=4), optimize=optimize) as session:
                for plan in session.plans(program):
                    hazards = find_hazards(StageGraph.from_plan(plan))
                    assert hazards == [], (app, optimize, hazards)


def test_dropped_ordering_edge_is_a_read_before_publish_hazard():
    # The PR-5 bug class: a producer that drifts after its consumer in plan
    # order loses its StageGraph edge silently -- the scheduler would then
    # happily run the consumer first.  The detector must see it statically.
    plan = _scalar_loop_plan()
    aggregate = next(
        i for i, s in enumerate(plan.steps) if s.scalar_output() is not None
    )
    scalar_name = plan.steps[aggregate].scalar_output()
    consumer = next(
        i for i, s in enumerate(plan.steps)
        if scalar_name in s.scalar_inputs()
    )
    assert aggregate < consumer, "planner orders the aggregate first"
    assert find_hazards(StageGraph.from_plan(plan)) == []  # well-formed

    step = plan.steps.pop(aggregate)
    plan.steps.insert(consumer, step)  # lands just after the consumer

    hazards = find_hazards(StageGraph.from_plan(plan))
    assert [h.kind for h in hazards] == [READ_BEFORE_PUBLISH]
    assert hazards[0].subject == f"scalar {scalar_name!r}"


def _cellwise_fixture():
    """program + the instances/ops to hand-build publish schedules with."""
    pb = ProgramBuilder()
    A = pb.random("A", (8, 8))
    B = pb.random("B", (8, 8))
    pb.output(pb.assign("C", A + B))
    program = pb.build()
    a_name = program.bindings["A"]
    b_name = program.bindings["B"]
    c_name = program.bindings["C"]
    cellwise = next(op for op in program.ops if isinstance(op, CellwiseOp))
    a = MatrixInstance(a_name, False, Scheme.ROW)
    b = MatrixInstance(b_name, False, Scheme.ROW)
    c = MatrixInstance(c_name, False, Scheme.ROW)
    sources = {
        op.output: SourceStep(op, MatrixInstance(op.output, False, Scheme.ROW))
        for op in program.ops
        if op.output in (a_name, b_name)
    }
    return program, cellwise, (a, b, c), sources


def test_conflicting_double_publish_is_a_hazard():
    program, cellwise, (a, b, c), sources = _cellwise_fixture()
    conflicting = dataclasses.replace(cellwise, op="subtract")
    plan = Plan(
        program=program,
        steps=[
            sources[a.name],
            sources[b.name],
            CellwiseStep(cellwise, a, b, c),
            CellwiseStep(conflicting, a, b, c),
        ],
        outputs={c.name: c},
        predicted_bytes=0,
    )
    hazards = find_hazards(StageGraph.from_plan(plan))
    doubles = [h for h in hazards if h.kind == DOUBLE_PUBLISH]
    assert len(doubles) == 1
    assert doubles[0].subject == c.name


def test_republishing_the_same_value_is_not_a_hazard():
    # A duplicated identical publish is redundancy (DM2xx territory), not a
    # race for the value: both winners compute the same thing.
    program, cellwise, (a, b, c), sources = _cellwise_fixture()
    plan = Plan(
        program=program,
        steps=[
            sources[a.name],
            sources[b.name],
            CellwiseStep(cellwise, a, b, c),
            CellwiseStep(cellwise, a, b, c),
        ],
        outputs={c.name: c},
        predicted_bytes=0,
    )
    hazards = find_hazards(StageGraph.from_plan(plan))
    assert [h.kind for h in hazards if h.kind == DOUBLE_PUBLISH] == []


def test_happens_before_matches_the_stage_graphs_own_edges():
    program, __, ___ = small_workload("gnmf")
    graph = StageGraph.from_plan(_plan(program))
    masks = ancestor_masks(graph)
    for node in graph.nodes:
        steps = sorted(node.steps)
        # Within a node: serial, ascending plan order -- and never backwards.
        for earlier, later in zip(steps, steps[1:]):
            assert happens_before(graph, earlier, later, masks)
            assert not happens_before(graph, later, earlier, masks)
        # Across nodes: every recorded dep edge orders every step pair.
        for dep in node.deps:
            for producer in graph.nodes[dep].steps:
                for consumer in node.steps:
                    assert happens_before(graph, producer, consumer, masks)
