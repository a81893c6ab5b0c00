"""The prepared record (``repro.runtime.graph.prepare``) is exact, fresh
and mortal: it equals a from-scratch derivation on every registry plan,
it is derived again after every in-place edit of its plan, and it dies
with the plan."""

import gc

import pytest

from repro import ClusterConfig, DMacSession
from repro.core.plan import CellwiseStep, ExtendedStep
from repro.errors import VerificationError
from repro.lang.program import ProgramBuilder
from repro.lint import LintContext, lint_plan
from repro.lint.selftest import CORRUPTIONS, reference_program_plan
from repro.planopt.common import clone_plan
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload
from repro.runtime.graph import StageGraph, prepare
from repro.serve.plancache import CacheEntry, PlanCache, plan_for_cache
from repro.verify import verify_plan
from repro.verify.memory import predict_peak_memory

SMALL = WorkloadParams(scale=5e-4, iterations=2, rows=300, features=30, rank=4)


def from_scratch(plan, config, *, max_concurrent_stages, block_size=None):
    """What ``prepare`` must hold, derived the long way."""
    graph = StageGraph.from_plan(plan)
    prediction = predict_peak_memory(
        plan,
        num_workers=config.num_workers,
        threads_per_worker=config.threads_per_worker,
        block_size=block_size,
        inplace=config.inplace,
        max_concurrent_stages=max_concurrent_stages,
    )
    return graph, prediction, tuple(str(step) for step in plan.steps)


def assert_record_is(record, plan, config, **sizing):
    graph, prediction, labels = from_scratch(plan, config, **sizing)
    assert record.graph.nodes == graph.nodes
    assert record.graph.step_deps == graph.step_deps
    assert record.graph.node_of_step == graph.node_of_step
    assert record.graph.available_stage == graph.available_stage
    assert record.graph.plan.steps is plan.steps
    assert record.prediction == prediction
    assert record.block_size == prediction.block_size
    assert record.labels == labels


@pytest.mark.parametrize("workers", (2, 4, 7))
@pytest.mark.parametrize("optimize", (False, True), ids=("raw", "optimized"))
@pytest.mark.parametrize("app", ALL_APPS)
def test_the_record_equals_a_from_scratch_derivation(app, optimize, workers):
    program = build_workload(app, SMALL).program
    with DMacSession(ClusterConfig(num_workers=workers), optimize=optimize) as session:
        for plan in session.plans(program):
            for concurrency in (1, None):
                record = prepare(
                    session.context, plan, max_concurrent_stages=concurrency
                )
                assert_record_is(
                    record, plan, session.config, max_concurrent_stages=concurrency
                )
                again = prepare(
                    session.context, plan, max_concurrent_stages=concurrency
                )
                assert again is record  # kept, not derived again
            assert len(session.context.prepared[id(plan)][1]) == 2  # one per sizing


def test_an_unscheduled_plan_is_stamped_after_scheduling():
    """``from_plan`` schedules a plan that never was: a stamp taken before
    would not match the plan the next reader sees."""
    program = build_workload("linreg", SMALL).program
    with DMacSession(ClusterConfig(num_workers=4)) as session:
        plan = clone_plan(session.plan(program))
        assert plan.num_stages == 0
        record = prepare(session.context, plan)
        assert plan.num_stages > 0
        assert prepare(session.context, plan) is record


def test_a_clone_starts_clean():
    program = build_workload("linreg", SMALL).program
    with DMacSession(ClusterConfig(num_workers=4), optimize=True) as session:
        plan = session.plan(program)
        record = prepare(session.context, plan)
        clone = clone_plan(plan)
        assert prepare(session.context, clone) is not record
        assert set(session.context.prepared) == {id(plan), id(clone)}


# -- (b) every in-place edit is seen ------------------------------------------


def scalar_program():
    """A cellwise step, and a driver scalar with a consumer to reorder."""
    pb = ProgramBuilder()
    a = pb.random("A", (24, 24))
    c = pb.random("C", (24, 24))
    s = pb.scalar("s", a.sum())
    pb.output(pb.assign("B", (a + c) * s))
    return pb.build()


def _swap_scalar_producer(plan):
    aggregate = next(i for i, s in enumerate(plan.steps) if s.scalar_output())
    name = plan.steps[aggregate].scalar_output()
    consumer = next(i for i, s in enumerate(plan.steps) if name in s.scalar_inputs())
    plan.steps.insert(consumer, plan.steps.pop(aggregate))


def _append_dead_step(plan):
    source = next(s.output_instance() for s in plan.steps if s.output_instance())
    stray = ExtendedStep("transpose", source, source)
    stray.stage = plan.num_stages
    plan.steps.append(stray)


def _move_a_step_to_a_later_stage(plan):
    plan.steps[-1].stage += 1


def _pin_an_instance(plan):
    plan.cache_pins = (
        next(s.output_instance() for s in plan.steps if s.output_instance()),
    )


def _swap_cellwise_operands(plan):
    step = next(s for s in plan.steps if isinstance(s, CellwiseStep))
    step.left, step.right = step.right, step.left


EDITS = {
    "steps.pop/insert": _swap_scalar_producer,
    "steps.append": _append_dead_step,
    "step.stage": _move_a_step_to_a_later_stage,
    "cache_pins": _pin_an_instance,
    "operand fields": _swap_cellwise_operands,
}


@pytest.mark.parametrize("edit", EDITS)
def test_an_edit_between_two_runs_is_seen(edit):
    program = scalar_program()
    with DMacSession(ClusterConfig(num_workers=4)) as session:
        plan = session.plan(program)
        first = session.run(program, plan=plan)
        sizing = dict(max_concurrent_stages=session.config.max_concurrent_stages)
        before = prepare(session.context, plan, **sizing)
        assert first.predicted_peak_memory_bytes == before.prediction.peak_bytes
        EDITS[edit](plan)
        after = prepare(session.context, plan, **sizing)
        assert after is not before
        assert_record_is(after, plan, session.config, **sizing)
        assert len(session.context.prepared) == 1  # replaced, not kept beside


def test_a_rerun_of_an_edited_plan_reports_the_edited_plans_facts():
    program = scalar_program()
    with DMacSession(ClusterConfig(num_workers=4)) as session:
        plan = session.plan(program)
        first = session.run(program, plan=plan, trace=True)
        _pin_an_instance(plan)
        _swap_cellwise_operands(plan)
        second = session.run(program, plan=plan, trace=True)
        fresh = from_scratch(
            plan,
            session.config,
            max_concurrent_stages=session.config.max_concurrent_stages,
        )
    assert [t.step for t in second.trace] == list(fresh[2])
    assert [t.step for t in second.trace] != [t.step for t in first.trace]
    assert second.predicted_peak_memory_bytes == fresh[1].peak_bytes
    assert second.predicted_peak_memory_bytes > first.predicted_peak_memory_bytes


def test_verify_sees_a_hazard_introduced_between_two_runs():
    program = scalar_program()
    with DMacSession(ClusterConfig(num_workers=4), verify="error") as session:
        plan = session.plan(program)
        session.run(program, plan=plan)
        _swap_scalar_producer(plan)
        with pytest.raises(VerificationError, match="read-before-publish"):
            session.run(program, plan=plan)
        assert verify_plan(plan, num_workers=4).has_errors


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.rule)
def test_the_selftest_fires_its_rule_on_a_plan_prepared_before_the_corruption(
    corruption,
):
    context = LintContext()
    with DMacSession(ClusterConfig(num_workers=context.num_workers)) as session:
        plan = reference_program_plan(context)
        prepare(session.context, plan)
        bad_plan, bad_context = corruption.apply(plan, context)
        graph = prepare(session.context, bad_plan).graph
        report = lint_plan(bad_plan, bad_context, graph=graph)
        assert report.rule_ids() == {corruption.rule}
        assert list(report) == list(lint_plan(bad_plan, bad_context))


# -- (c) records die with their plan ------------------------------------------


def test_the_table_is_empty_once_the_plan_is_dropped():
    workload = build_workload("powiter", WorkloadParams(rows=60))
    with DMacSession(ClusterConfig(num_workers=4)) as session:
        plans = session.plans(workload.program)
        session.run(workload.program, workload.inputs, plan=plans)
        assert len(session.context.prepared) == 2  # prologue + body
        del plans
        gc.collect()
        assert session.context.prepared == {}


def test_the_table_holds_no_plan_the_plan_cache_evicted():
    programs = [
        build_workload(app, WorkloadParams(rows=40 + 4 * n, features=10, iterations=1)).program
        for n in range(100)
        for app in ("linreg", "powiter")
    ]
    cache = PlanCache(max_entries=16)
    with DMacSession(ClusterConfig(num_workers=4)) as session:
        for miss, program in enumerate(programs):
            entry: CacheEntry = plan_for_cache(session, program)
            cache.insert(CacheEntry(**{**vars(entry), "fingerprint": str(miss)}))
        assert cache.evictions == len(programs) - 16 == 184
        gc.collect()
        cached = {id(plan) for fp in cache._entries.values() for plan in fp.plans}
        assert set(session.context.prepared) == cached
        assert len(cached) <= 16 * 2  # segments per entry


# -- (d) a record is shared only by readers that size the same run ------------


def test_elastic_and_static_sessions_keep_what_each_got_before():
    """A run under a membership timeline dispatches one stage at a time, so
    its executor never shares admission's record (configured concurrency);
    a static session's readers all share one.  Numbers: admission /
    executor, the executor's bound with the load ``V`` charged at what its
    fullest worker holds once cut (``MemoryPrediction.bound_as_cut``).
    The heaviest antichain at the configured concurrency is the serial
    one here, and its steps do not read ``V``: the cut adds nothing.
    (Before the bound was one antichain search, the static run's
    concurrent bound was 148 880 B, +96 B once cut.)"""
    workload = build_workload("gnmf", WorkloadParams(scale=2e-3, iterations=1))
    seen = {}
    for name, cluster in (
        ("static", ClusterConfig(num_workers=4)),
        ("elastic", ClusterConfig(num_workers=2, elastic="join@1:count=2")),
    ):
        with DMacSession(cluster) as session:
            entry = plan_for_cache(session, workload.program)
            result = session.run(workload.program, workload.inputs, plan=entry.plans)
            records = session.context.prepared[id(entry.plans[0])][1]
            seen[name] = (
                entry.predicted_peak_bytes,
                result.predicted_peak_memory_bytes,
                len(records),
            )
    assert seen == {
        "static": (78_736, 78_736, 1),
        "elastic": (78_736, 78_736, 2),
    }
