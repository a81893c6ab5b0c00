"""The shape and liveness analyses answer what they answered before the
shape analysis stopped copying its environment for every step.

``golden_analysis.json`` was captured on the commit before that change
(PR 22's parent) with that tree's own ``analyse_plan``: every registry app
(per segment for ``powiter``), raw and optimized, 4 workers, registry
default sizes, plus the lint selftest's reference plan -- every field of
the ``PlanAnalysis`` of the day (``live_after`` as a digest).  The NNZ and
layout analyses and the engine's iteration count and widening are gone;
what is left of that record is compared here, ``shapes`` and
``live_after_sha256``.  Never regenerate the file: its ``gnmf/optimized``
and ``cf/optimized`` records hold only those two fields, re-captured when
the optimizer started associating product chains by the cost model and
multiplying two replicas replicated (``bmm``).
"""

import dataclasses
import hashlib
import json
import pathlib

from repro.core.plan import ExtendedStep, MatrixInstance, SourceStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.frontend.staged import segments_of
from repro.lang.program import ProgramBuilder
from repro.lint import LintContext
from repro.lint.selftest import reference_program_plan
from repro.matrix.schemes import Scheme
from repro.planopt import optimize_plan
from repro.programs.registry import ALL_APPS, build_workload
from repro.runtime.registry import OPERATORS
from repro.verify.analysis import solve_shapes
from repro.verify.memory import solve_liveness

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_analysis.json").read_text()
)
WORKERS = 4
KEPT = ("shapes", "live_after_sha256")


def render(plan) -> dict:
    live_after = [sorted(str(i) for i in live) for live in solve_liveness(plan)]
    return {
        "shapes": {
            str(instance): list(fact) for instance, fact in solve_shapes(plan).items()
        },
        "live_after_sha256": hashlib.sha256(
            json.dumps(live_after).encode()
        ).hexdigest(),
    }


def plans():
    for app in ALL_APPS:
        for label, program in segments_of(build_workload(app).program).programs:
            raw = schedule_stages(DMacPlanner(program, WORKERS).plan())
            key = f"{app}/{label}" if label else app
            yield f"{key}/raw", raw
            yield f"{key}/optimized", optimize_plan(raw, num_workers=WORKERS)
    yield "selftest/reference", reference_program_plan(LintContext())


def test_every_analysis_equals_the_parents_field_for_field():
    seen = {key: render(plan) for key, plan in plans()}
    assert sorted(seen) == sorted(GOLDEN)
    for key in GOLDEN:
        assert seen[key] == {field: GOLDEN[key][field] for field in KEPT}, key


def test_shape_rules_never_see_top(monkeypatch):
    """An unregistered step's output is unknown; its reader must be fed
    "unknown", not a sentinel to index into -- and only what it reads."""
    pb = ProgramBuilder()
    a = pb.random("A", (6, 4))
    pb.output(pb.assign("B", a @ a.T))
    plan = schedule_stages(DMacPlanner(pb.build(), WORKERS).plan())

    class AlienStep(ExtendedStep):
        pass

    ghost = MatrixInstance("ghost", False, Scheme.ROW)
    source = next(s.output_instance() for s in plan.steps if s.output_instance())
    plan.steps.append(AlienStep("partition", source, ghost))
    plan.steps.append(
        ExtendedStep("transpose", ghost, MatrixInstance("ghost", True, Scheme.COL))
    )
    fed = []
    spec = OPERATORS[ExtendedStep]
    monkeypatch.setitem(
        OPERATORS,
        ExtendedStep,
        dataclasses.replace(
            spec,
            shape_rule=lambda step, shapes: fed.append((step, dict(shapes)))
            or spec.shape_rule(step, shapes),
        ),
    )
    shapes = solve_shapes(plan)
    assert ghost not in shapes
    assert MatrixInstance("ghost", True, Scheme.COL) not in shapes
    assert fed
    for step, seen in fed:
        assert set(seen) <= set(step.inputs())
        assert all(isinstance(fact, tuple) for fact in seen.values())
    assert fed[-1] == (plan.steps[-1], {})  # the reader of the unknown cell


def test_malformed_plans_leave_their_shapes_unknown():
    """One forward pass: a read before its producer learns nothing, two
    producers that disagree make an instance unknown for good (a third that
    agrees with the first does not bring it back), and an unregistered
    step's output is unknown."""
    pb = ProgramBuilder()
    pb.output(pb.random("A", (6, 4)))
    plan = schedule_stages(DMacPlanner(pb.build(), WORKERS).plan())
    a = next(s.output for s in plan.steps if isinstance(s, SourceStep))
    x, y = (MatrixInstance(name, False, Scheme.ROW) for name in "XY")

    def shapes(before=(), after=()):
        steps = [*before, *plan.steps, *after]
        return solve_shapes(dataclasses.replace(plan, steps=steps))

    assert shapes() == {a: (6, 4)}
    out_of_order = shapes(
        before=[ExtendedStep("partition", x, y)],
        after=[ExtendedStep("partition", a, x)],
    )
    assert out_of_order == {a: (6, 4), x: (6, 4)}
    disagreeing = shapes(
        after=[
            ExtendedStep("partition", a, x),
            ExtendedStep("transpose", a, x),
            ExtendedStep("partition", a, x),
            ExtendedStep("partition", x, y),
        ]
    )
    assert disagreeing == {a: (6, 4)}

    class AlienStep(ExtendedStep):
        pass

    assert shapes(after=[AlienStep("partition", a, x)]) == {a: (6, 4)}
