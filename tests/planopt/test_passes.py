"""Unit tests for the plan-optimizer passes (repro.planopt)."""

import dataclasses

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.core.defuse import DefUse
from repro.core.plan import ExtendedStep, MatMulStep, MatrixInstance, ProductChainStep
from repro.core.stages import step_stages
from repro.lang.program import ProgramBuilder
from repro.lint import LintContext, lint_plan
from repro.matrix.schemes import Scheme
from repro.planopt import optimize_plan
from repro.planopt.cse import structural_key
from repro.planopt.fuse import fuse_chains
from repro.planopt.pipeline import DEFAULT_PASSES, FusePass
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
        keys = [k for k in map(structural_key, opt.steps) if k is not None]
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

        from repro.planopt.common import clone_plan, toposort_steps
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
        toposort_steps(shuffled)
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


def chain_program(*operands, output_intermediate=False, second_reader=False):
    """``A (400x8) @ B @ C ...`` for the given inner widths, each product
    assigned to its own name (``P1``, ``P2``, ...)."""
    pb = ProgramBuilder()
    value = pb.load("A", (400, 8))
    rows = 8
    products = []
    for index, cols in enumerate(operands):
        right = pb.load(f"B{index}", (rows, cols))
        value = pb.assign(f"P{index + 1}", value @ right)
        products.append(value)
        rows = cols
    pb.output(value)
    if output_intermediate:
        pb.output(products[0])
    if second_reader:
        pb.output(pb.assign("Z", products[0] @ pb.load("D", (operands[0], 3))))
    return pb.build()


def unfused_plan(program):
    """The optimized plan of ``program`` before the fusion pass."""
    raw = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    passes = tuple(p for p in DEFAULT_PASSES if not isinstance(p, FusePass))
    return optimize_plan(raw, num_workers=4, passes=passes)


def links(plan, name):
    """The ``rmm2`` step producing the matrix ``name``."""
    (step,) = [
        s for s in plan.steps
        if isinstance(s, MatMulStep) and s.output.name == name
    ]
    assert step.strategy == "rmm2"
    return step


def chains(plan):
    return [step for step in plan.steps if isinstance(step, ProductChainStep)]


class TestProductChainFusion:
    def test_a_row_local_chain_becomes_one_step(self):
        __, opt = plans_for(chain_program(50, 8))
        (chain,) = chains(opt)
        assert [str(link.output) for link in chain.chain] == ["P1(r)", "P2(r)"]
        assert chain.inputs() == (chain.chain[0].left, *(l.right for l in chain.chain))
        assert [r.description for r in opt.rewrites if r.pass_name == "fuse"] == [
            "fused 2 row-local products into one block-row pipeline for P2(r)"
        ]
        assert not any(
            isinstance(s, MatMulStep) and s.output.name in ("P1", "P2")
            for s in opt.steps
        )

    def test_the_maximal_run_fuses_three_links(self):
        __, opt = plans_for(chain_program(50, 30, 8))
        (chain,) = chains(opt)
        assert [link.output.name for link in chain.chain] == ["P1", "P2", "P3"]

    def test_gnmf_fuses_one_chain_per_iteration(self):
        __, opt = plans_for(build_gnmf_program((60, 40), 0.05, factors=8, iterations=3))
        assert [c.output.name for c in chains(opt)] == ["_t9", "_t19", "_t29"]

    def test_an_output_intermediate_blocks_fusion(self):
        __, opt = plans_for(chain_program(50, 8, output_intermediate=True))
        assert not chains(opt)

    def test_a_second_reader_blocks_fusion(self):
        plan = unfused_plan(chain_program(50, 8, second_reader=True))
        assert len(DefUse.of(plan).consumers[links(plan, "P1").output]) == 2
        fuse_chains(plan)
        assert not chains(plan)

    def test_a_cache_pin_blocks_fusion(self):
        plan = unfused_plan(chain_program(50, 8))
        plan.cache_pins = (links(plan, "P1").output,)
        fuse_chains(plan)
        assert not chains(plan)

    @pytest.mark.parametrize("left_too", [False, True], ids=["right", "both"])
    def test_a_right_operand_read_blocks_fusion(self, left_too):
        plan = unfused_plan(chain_program(50, 8))
        first, second = links(plan, "P1"), links(plan, "P2")
        left = first.output if left_too else first.left
        plan.steps[plan.steps.index(second)] = dataclasses.replace(
            second, left=left, right=first.output
        )
        fuse_chains(plan)
        assert not chains(plan)

    def test_links_in_different_stages_do_not_fuse(self):
        """``B1(b)`` is broadcast from a partitioned copy: the second link
        runs a stage after the first."""
        plan = unfused_plan(chain_program(50, 8))
        second = links(plan, "P2")
        replica = second.right
        moved = MatrixInstance(replica.name, replica.transposed, Scheme.COL)
        (broadcast,) = [s for s in plan.steps if s.output_instance() == replica]
        at = plan.steps.index(broadcast)
        plan.steps[at:at + 1] = [
            ExtendedStep("partition", broadcast.source, moved),
            ExtendedStep("broadcast", moved, replica),
        ]
        stages = dict(zip(map(id, plan.steps), step_stages(plan.steps)))
        assert stages[id(second)] == stages[id(links(plan, "P1"))] + 1
        assert fuse_chains(plan) == []
        assert not chains(plan)
