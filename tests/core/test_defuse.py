"""The def-use record (``repro.core.defuse``): one loop answers who produces
and who reads every instance and driver scalar, and each reader composes it.

``golden_defuse.json`` was captured on the commit *before* the record
existed (PR 23's parent), with that tree's own functions, on the hand-built
plans below: ``StageGraph.from_plan(plan).step_deps``,
``value_summary(plan).order_violations`` / ``.dangling``,
``find_hazards(graph)`` and the DM107 diagnostics of ``lint_plan`` -- each
of which kept a producer map of its own there.  The readers of the record
must report exactly that.  Never regenerate the file.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core.defuse import DefUse
from repro.core.plan import CellwiseStep, ExtendedStep, MatrixInstance
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lang.program import ProgramBuilder
from repro.lint import LintContext, lint_plan
from repro.matrix.schemes import Scheme
from repro.runtime.graph import StageGraph
from repro.verify.hazards import find_hazards

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_defuse.json").read_text()
)


def clean_plan():
    """0 ``A(c)``, 1 ``C(c)``, 2 ``s <- sum(A(c))``, 3 ``A(b) <- broadcast``,
    4 ``_t2(c) <- rmm1(A(b), C(c))``, 5 ``_t3(c) <- add(_t2(c), C(c))``,
    6 ``B(c) <- multiply(_t3(c), s)``; scheduled before any edit."""
    pb = ProgramBuilder()
    a = pb.random("A", (24, 24))
    c = pb.random("C", (24, 24))
    s = pb.scalar("s", a.sum())
    pb.output(pb.assign("B", (a @ c + c) * s))
    return schedule_stages(DMacPlanner(pb.build(), 4).plan())


def _republish_the_broadcast(plan):
    again = ExtendedStep("broadcast", plan.steps[3].source, plan.steps[3].target)
    again.stage = plan.steps[3].stage
    plan.steps.append(again)


def _publish_a_second_value(plan):
    add = plan.steps[5]
    other = CellwiseStep(
        dataclasses.replace(add.op, op="subtract"), add.left, add.right, add.output
    )
    other.stage = add.stage
    plan.steps.insert(6, other)


def _read_before_the_producer(plan):
    plan.steps.insert(4, plan.steps.pop(3))  # the matmul now precedes A(b)


def _drop_a_source(plan):
    del plan.steps[1]  # C(c): read twice, produced never


def _read_own_output(plan):
    ghost = MatrixInstance("B", True, Scheme.ROW)
    loop = ExtendedStep("transpose", ghost, ghost)
    loop.stage = plan.num_stages
    plan.steps.append(loop)


def _read_the_scalar_before_its_aggregate(plan):
    plan.steps.append(plan.steps.pop(2))


EDITS = {
    "clean": lambda plan: None,
    "produced twice, same value": _republish_the_broadcast,
    "produced twice, another value": _publish_a_second_value,
    "consumed before produced": _read_before_the_producer,
    "consumed, never produced": _drop_a_source,
    "a step reading its own output": _read_own_output,
    "a scalar read before its aggregate": _read_the_scalar_before_its_aggregate,
}


def edited(case):
    plan = clean_plan()
    EDITS[case](plan)
    return plan


def test_the_golden_file_covers_every_case():
    assert set(GOLDEN) == set(EDITS)


@pytest.mark.parametrize("case", EDITS)
def test_the_readers_report_what_their_own_loops_did(case):
    plan, golden = edited(case), GOLDEN[case]
    graph, defuse = StageGraph.from_plan(plan), DefUse.of(plan)
    assert graph.defuse == defuse
    assert {
        str(i): sorted(deps) for i, deps in graph.step_deps.items()
    } == golden["step_deps"]
    assert [list(v) for v in defuse.order_violations()] == golden["order_violations"]
    assert list(defuse.dangling()) == golden["dangling"]
    assert [str(h) for h in find_hazards(graph)] == golden["hazards"]
    assert [
        [d.step, d.subject, d.message]
        for d in lint_plan(plan, LintContext(), graph=graph)
        if d.rule == "DM107"
    ] == golden["dm107"]


def test_all_producers_are_kept_ascending_and_first_is_the_first():
    plan = edited("produced twice, same value")
    defuse = DefUse.of(plan)
    replica = plan.steps[3].target
    assert defuse.producers[replica] == (3, 7)
    assert defuse.first(replica) == 3
    assert defuse.consumers[replica] == (4,)
    assert defuse.unproduced == () and defuse.scalar_unproduced == ()
    assert defuse.first(MatrixInstance("nobody", False, Scheme.ROW)) is None


def test_a_producer_that_comes_later_is_not_a_dependency():
    plan = edited("consumed before produced")
    graph = StageGraph.from_plan(plan)
    replica = plan.steps[4].target
    assert graph.defuse.producers[replica] == (4,)
    assert graph.defuse.unproduced == ((3, replica),)
    assert graph.step_deps[3] == {1}  # C(c) only: A(b) comes after its reader


def test_every_read_of_a_missing_instance_is_listed_and_dangles_once():
    plan = edited("consumed, never produced")
    defuse = DefUse.of(plan)
    missing = plan.steps[3].right
    assert missing not in defuse.producers
    assert defuse.unproduced == ((3, missing), (4, missing))
    assert defuse.dangling() == (str(missing),)
    assert defuse.order_violations() == ()


def test_a_step_is_not_produced_for_by_itself():
    plan = edited("a step reading its own output")
    graph = StageGraph.from_plan(plan)
    ghost = plan.steps[7].target
    assert graph.defuse.producers[ghost] == graph.defuse.consumers[ghost] == (7,)
    assert graph.defuse.unproduced == ((7, ghost),)
    assert graph.step_deps[7] == frozenset()


def test_scalars_are_tracked_like_instances():
    plan = edited("a scalar read before its aggregate")
    defuse = DefUse.of(plan)
    assert defuse.scalar_producers == {"s": (6,)}
    assert defuse.scalar_consumers == {"s": (5,)}
    assert defuse.scalar_unproduced == ((5, "s"),)
    assert defuse.order_violations() == ((5, "scalar s"),)
