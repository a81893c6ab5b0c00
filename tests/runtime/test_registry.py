"""Tests for the operator registry (repro.runtime.registry)."""

import pytest

from repro.core import plan as plan_module
from repro.core.plan import Step
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.lang.program import ProgramBuilder
from repro.runtime.registry import (
    OPERATORS,
    OPERATORS_BY_OP,
    spec_for,
    spec_for_op,
)


def all_step_types():
    """Every concrete Step subclass defined by the plan module."""
    return [
        obj
        for obj in vars(plan_module).values()
        if isinstance(obj, type) and issubclass(obj, Step) and obj is not Step
    ]


def staged_gnmf_plan():
    pb = ProgramBuilder()
    v = pb.load("V", (24, 18), sparsity=0.3)
    w = pb.random("W", (24, 4))
    h = pb.random("H", (4, 18))
    h = pb.assign("H", h * (w.T @ v) / (w.T @ w @ h))
    w = pb.assign("W", w * (v @ h.T) / (w @ h @ h.T))
    pb.output(w)
    pb.output(h)
    return schedule_stages(DMacPlanner(pb.build(), 4).plan())


class TestCoverage:
    def test_every_step_type_is_registered(self):
        for step_type in all_step_types():
            assert step_type in OPERATORS, f"{step_type.__name__} not registered"

    def test_registry_has_no_stray_entries(self):
        assert set(OPERATORS) == set(all_step_types())

    def test_specs_are_complete(self):
        for spec in OPERATORS.values():
            assert spec.name
            assert callable(spec.kernel)
            assert callable(spec.shape_rule)
            assert callable(spec.edge_label)

    def test_planner_hooks_exist_for_every_lang_operator(self):
        for op_type, spec in OPERATORS_BY_OP.items():
            assert spec.plan_hook, f"{op_type.__name__} has no plan hook"
            assert hasattr(DMacPlanner, spec.plan_hook), (
                f"{op_type.__name__}: DMacPlanner.{spec.plan_hook} missing"
            )

    def test_names_are_unique(self):
        names = [spec.name for spec in OPERATORS.values()]
        assert len(names) == len(set(names))


class TestLookup:
    def test_spec_for_every_planned_step(self):
        plan = staged_gnmf_plan()
        for step in plan.steps:
            spec = spec_for(step)
            assert isinstance(spec.edge_label(step), str)

    def test_spec_for_unknown_step_raises(self):
        class AlienStep:
            pass

        with pytest.raises(PlanError, match="unknown step AlienStep"):
            spec_for(AlienStep())

    def test_spec_for_op_unknown_returns_none(self):
        assert spec_for_op(object()) is None


class TestSharedFacets:
    def test_shape_rules_agree_with_lint_facts(self):
        """The shapes the lint reads (``solve_shapes``, the one interpreter)
        are a plain forward pass over the registry's table."""
        from repro.verify.analysis import solve_shapes

        plan = staged_gnmf_plan()
        shapes = {}
        for step in plan.steps:
            output = step.output_instance()
            if output is None:
                continue
            shape = spec_for(step).shape_rule(step, shapes)
            if shape is not None:
                shapes[output] = shape
        assert shapes == solve_shapes(plan)

    def test_edge_labels_match_strategies(self):
        plan = staged_gnmf_plan()
        from repro.core.plan import MatMulStep

        for step in plan.steps:
            if isinstance(step, MatMulStep):
                assert spec_for(step).edge_label(step) == step.strategy
