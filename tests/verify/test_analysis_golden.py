"""``analyse_plan`` answers what it answered before the shape analysis
stopped copying its environment for every step.

``golden_analysis.json`` was captured on the commit before that change
(PR 22's parent) with that tree's own ``analyse_plan``: every registry app
(per segment for ``powiter``), raw and optimized, 4 workers, registry
default sizes, plus the lint selftest's reference plan -- every field of
:class:`~repro.verify.analysis.PlanAnalysis` (``live_after`` as a digest).
Never regenerate the file.
"""

import dataclasses
import hashlib
import json
import pathlib

from repro.core.plan import ExtendedStep, MatrixInstance
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
from repro.verify.analysis import analyse_plan, solve_shapes
from repro.verify.lattice import TOP

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_analysis.json").read_text()
)
WORKERS = 4


def render(analysis) -> dict:
    live_after = [sorted(str(i) for i in live) for live in analysis.live_after]
    return {
        "shapes": {
            str(instance): list(fact) if isinstance(fact, tuple) else "TOP"
            for instance, fact in analysis.shapes.items()
        },
        "layouts": {
            f"{name}{'^T' if transposed else ''}": sorted(str(s) for s in schemes)
            for (name, transposed), schemes in analysis.layouts.items()
        },
        "nnz": {
            name: None if interval is None else [interval.lo, interval.hi]
            for name, interval in analysis.nnz.items()
        },
        "live_after_sha256": hashlib.sha256(
            json.dumps(live_after).encode()
        ).hexdigest(),
        "iterations": analysis.iterations,
        "widened": sorted(analysis.widened),
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
    seen = {key: render(analyse_plan(plan)) for key, plan in plans()}
    assert sorted(seen) == sorted(GOLDEN)
    for key in GOLDEN:
        assert seen[key] == GOLDEN[key], key


def test_shape_rules_never_see_top(monkeypatch):
    """An unregistered step's output is ``TOP``; its reader must be fed
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
    shapes = solve_shapes(plan).values
    assert shapes[ghost] is TOP
    assert MatrixInstance("ghost", True, Scheme.COL) not in shapes
    assert fed
    for step, seen in fed:
        assert set(seen) <= set(step.inputs())
        assert all(isinstance(fact, tuple) for fact in seen.values())
    assert fed[-1] == (plan.steps[-1], {})  # the reader of the TOP cell
