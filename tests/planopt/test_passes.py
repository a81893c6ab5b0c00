"""Unit tests for the plan-optimizer passes (repro.planopt)."""

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.errors import PlanError
from repro.lint import LintContext, lint_plan
from repro.planopt import optimize_plan
from repro.planopt.structural import step_structural_key
from repro.programs import build_gnmf_program, build_pagerank_program


def plans_for(program, workers=4):
    """(baseline, optimized) plans for one program."""
    base = DMacSession(ClusterConfig(num_workers=workers)).plan(program)
    opt = DMacSession(ClusterConfig(num_workers=workers), optimize=True).plan(
        program
    )
    return base, opt


class TestPipeline:
    def test_pagerank_cost_strictly_improves(self):
        base, opt = plans_for(build_pagerank_program(400, 0.01, iterations=3))
        assert opt.predicted_bytes < base.predicted_bytes
        assert len(opt.steps) < len(base.steps)

    def test_rewrites_are_recorded(self):
        __, opt = plans_for(build_pagerank_program(400, 0.01, iterations=3))
        assert opt.rewrites, "optimizing pagerank must apply rewrites"
        passes = {r.pass_name for r in opt.rewrites}
        assert passes <= {"cse", "coalesce", "dce", "hoist"}
        assert {"cse", "coalesce", "hoist"} <= passes
        for rewrite in opt.rewrites:
            assert rewrite.format_human()  # human rendering never crashes

    def test_baseline_plan_left_untouched(self):
        program = build_pagerank_program(400, 0.01, iterations=3)
        base = DMacSession(ClusterConfig(num_workers=4)).plan(program)
        before = [str(s) for s in base.steps]
        optimize_plan(base, num_workers=4)
        assert [str(s) for s in base.steps] == before
        assert base.cache_pins == ()

    def test_an_unknown_pass_name_is_rejected(self):
        program = build_pagerank_program(40, 0.1, iterations=1)
        base = DMacSession(ClusterConfig(num_workers=4)).plan(program)
        with pytest.raises(PlanError, match="'cfold'"):
            optimize_plan(base, num_workers=4, passes=("cse", "cfold"))

    def test_never_costlier_across_apps(self):
        from repro.programs import (
            build_cf_program,
            build_jacobi_program,
            build_linreg_program,
            build_logreg_program,
            build_svd_program,
        )

        programs = [
            build_gnmf_program((60, 40), 0.05, factors=8, iterations=2),
            build_pagerank_program(100, 0.05, iterations=2),
            build_linreg_program((80, 10), 0.1, iterations=2),
            build_logreg_program((80, 10), 0.1, iterations=2),
            build_jacobi_program(50, 0.1, iterations=2),
            build_cf_program((40, 60), 0.05),
            build_svd_program((60, 40), 0.05, rank=3)[0],
        ]
        for program in programs:
            base, opt = plans_for(program)
            assert opt.predicted_bytes <= base.predicted_bytes
            # The passes never add a step to the plan they optimize: the
            # plan of the announced program, reassociated or not.
            if opt.program is not program:
                base = DMacSession(ClusterConfig(num_workers=4)).plan(opt.program)
            assert len(opt.steps) <= len(base.steps)

    def test_optimized_plans_lint_clean(self):
        context = LintContext(num_workers=4)
        for program in (
            build_pagerank_program(400, 0.01, iterations=3),
            build_gnmf_program((60, 40), 0.05, factors=8, iterations=2),
        ):
            __, opt = plans_for(program)
            report = lint_plan(opt, context)
            assert not report.diagnostics, report.format_human()


class TestCSE:
    def test_no_structural_duplicates_survive(self):
        __, opt = plans_for(build_pagerank_program(400, 0.01, iterations=4))
        keys = [k for k in map(step_structural_key, opt.steps) if k is not None]
        assert len(keys) == len(set(keys))

    def test_pagerank_duplicate_scalar_multiply_merged(self):
        """Every iteration re-emits multiply(D, 1-d); one copy survives."""
        base, opt = plans_for(build_pagerank_program(400, 0.01, iterations=3))

        def count(plan):
            return sum(
                1 for s in plan.steps if "multiply(D" in str(s)
            )

        assert count(base) == 3
        assert count(opt) == 1


class TestDCE:
    def test_every_surviving_step_is_live(self):
        __, opt = plans_for(build_pagerank_program(400, 0.01, iterations=3))
        consumed = set()
        for step in opt.steps:
            consumed.update(step.inputs())
        outputs = set(opt.outputs.values())
        for step in opt.steps:
            out = step.output_instance()
            if out is None:
                continue  # aggregates feed scalars, checked by lint DM202
            assert out in consumed or out in outputs, f"dead step survives: {step}"


    def test_liveness_does_not_depend_on_step_order(self):
        """``eliminate_dead_steps`` walked the step list backwards, which is
        right only on a sorted list: after the remove + append every flip
        cascade does (here: linreg's first source step) it deleted that live
        producer, and the next toposort found "nothing produces" its output."""
        import random

        from repro.planopt.common import clone_plan
        from repro.planopt.dce import eliminate_dead_steps
        from repro.planopt.index import PlanIndex
        from repro.programs import build_linreg_program

        program = build_linreg_program((80, 12), 0.1, iterations=3)
        base = DMacSession(ClusterConfig(num_workers=4)).plan(program)
        reference = clone_plan(base)
        (rewrite,) = eliminate_dead_steps(reference)
        survivors = sorted(map(str, reference.steps))
        assert len(rewrite.removed) == len(base.steps) - len(survivors) > 0

        moved = clone_plan(base)
        index = PlanIndex(moved)
        source = moved.steps[0]
        index.remove(source)
        index.append(source)
        assert eliminate_dead_steps(moved, index) == [rewrite]  # same text, same order
        index.toposort()  # used to raise PlanError
        assert sorted(map(str, moved.steps)) == survivors

        shuffled = clone_plan(base)
        random.Random(7).shuffle(shuffled.steps)
        assert sorted(eliminate_dead_steps(shuffled)[0].removed) == sorted(rewrite.removed)
        shuffled.steps = PlanIndex(shuffled).toposorted()
        assert sorted(map(str, shuffled.steps)) == survivors


class TestHoist:
    def test_pagerank_pins_the_link_matrix(self):
        """Figure 9(a): the loop-invariant link matrix is cached once."""
        __, opt = plans_for(build_pagerank_program(400, 0.01, iterations=3))
        assert any(i.name == "link" for i in opt.cache_pins)

    def test_pins_are_epoch_zero(self):
        for program in (
            build_pagerank_program(400, 0.01, iterations=3),
            build_gnmf_program((60, 40), 0.05, factors=8, iterations=2),
        ):
            __, opt = plans_for(program)
            for pin in opt.cache_pins:
                assert "@" not in pin.name, f"loop-carried pin {pin}"

    def test_pins_are_produced_by_the_plan(self):
        __, opt = plans_for(build_gnmf_program((60, 40), 0.05, factors=8,
                                               iterations=2))
        produced = {s.output_instance() for s in opt.steps}
        for pin in opt.cache_pins:
            assert pin in produced


class TestCoalesce:
    def test_pagerank_loses_its_per_iteration_partitions(self):
        base, opt = plans_for(build_pagerank_program(400, 0.01, iterations=3))

        def partitions(plan):
            return sum(1 for s in plan.steps if "partition" in str(s))

        assert partitions(opt) < partitions(base)

    def test_single_iteration_is_stable(self):
        """With one iteration there is nothing loop-invariant to win on;
        the optimizer must not regress the plan."""
        base, opt = plans_for(build_pagerank_program(400, 0.01, iterations=1))
        assert opt.predicted_bytes <= base.predicted_bytes


class TestExecution:
    def test_optimized_pagerank_run_is_byte_identical_and_cheaper(self):
        rng = np.random.default_rng(7)
        nodes = 200
        link = rng.random((nodes, nodes))
        link[link > 0.02] = 0.0
        program = build_pagerank_program(nodes, 0.02, iterations=3)
        plain = DMacSession(ClusterConfig(num_workers=4)).run(
            program, {"link": link}
        )
        opt = DMacSession(ClusterConfig(num_workers=4), optimize=True).run(
            program, {"link": link}
        )
        assert set(plain.matrices) == set(opt.matrices)
        for name in plain.matrices:
            assert plain.matrices[name].tobytes() == opt.matrices[name].tobytes()
        assert opt.comm_bytes < plain.comm_bytes
        assert opt.simulated_seconds < plain.simulated_seconds
        assert opt.cache is not None and opt.cache["pins"] >= 1
