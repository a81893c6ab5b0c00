"""The optimizer's def-use index (repro.planopt.index) and the counts that
guard what it bought: no per-query rebuilds, no scans inside a cascade,
no candidate costed twice."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExtendedStep, MatrixInstance
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.matrix.schemes import Scheme
from repro.planopt import coalesce, optimize_plan, pipeline
from repro.planopt.common import clone_plan
from repro.planopt.cse import eliminate_common_steps
from repro.planopt.index import PlanIndex
from repro.programs import build_linreg_program, build_pagerank_program
from repro.programs.registry import WorkloadParams, build_workload


def planned(program):
    return schedule_stages(DMacPlanner(program, 4).plan())


@pytest.fixture(scope="module")
def svd_plan():
    """The e2e benchmark's control-plane-bound shape (svd rank=5)."""
    return planned(build_workload("svd", WorkloadParams(scale=3e-3, rank=5)).program)


@pytest.fixture(scope="module")
def linreg_plan():
    return planned(build_linreg_program((80, 12), 0.1, iterations=3))


# -- the index equals a from-scratch rebuild ----------------------------------


def snapshot(index):
    """Everything the index answers, in terms of step identities."""
    instances = list(index.producer_map()) + list(index.consumer_map())
    try:
        order = [id(step) for step in index.toposorted()]
    except PlanError as error:
        order = str(error)
    return {
        "steps": [id(step) for step in index.steps()],
        "producers": [(i, id(s)) for i, s in index.producer_map().items()],
        "consumers": [
            (i, [id(s) for s in steps]) for i, steps in index.consumer_map().items()
        ],
        "siblings": {i: index.siblings(i) for i in instances},
        "mentions": {
            i.name: [id(s) for s in index.mentions(i.name)] for i in instances
        },
        "toposorted": order,
    }


def fields_of(plan):
    return [dict(vars(step)) for step in plan.steps]


#: One random mutation: (kind, step pick, instance pick, scheme pick).
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("rebind-output", "rebind-operand", "append", "remove")),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(list(Scheme)),
    ),
    max_size=25,
)


def mutate(index, mutations):
    """Apply random instances of the three mutations through the index."""
    for kind, pick, other, scheme in mutations:
        steps = index.steps()
        if not steps:
            return
        step = steps[pick % len(steps)]
        donor = steps[other % len(steps)].output_instance()
        if kind == "remove":
            index.remove(step)
        elif kind == "append" and donor is not None:
            target = MatrixInstance(donor.name, not donor.transposed, scheme)
            index.append(ExtendedStep("transpose", donor, target))
        elif kind == "rebind-output" and step.output_instance() is not None:
            field = "target" if isinstance(step, ExtendedStep) else "output"
            old = step.output_instance()
            index.rebind(step, **{field: MatrixInstance(old.name, old.transposed, scheme)})
        elif kind == "rebind-operand" and donor is not None:
            operands = [
                f for f in ("left", "right", "source")
                if isinstance(getattr(step, f, None), MatrixInstance)
            ]
            if operands:
                index.rebind(step, **{operands[other % len(operands)]: donor})


@settings(max_examples=60, deadline=None)
@given(mutations=MUTATIONS)
def test_index_equals_a_rebuild_after_any_mutation_sequence(mutations):
    plan = clone_plan(planned(build_pagerank_program(120, 0.05, iterations=2)))
    index = PlanIndex(plan)
    mutate(index, mutations)
    index.flush()
    assert snapshot(index) == snapshot(PlanIndex(plan))


@settings(max_examples=60, deadline=None)
@given(mutations=MUTATIONS)
def test_trial_restores_the_index_and_every_step(mutations):
    plan = clone_plan(planned(build_pagerank_program(120, 0.05, iterations=2)))
    index = PlanIndex(plan)
    before, fields, version = snapshot(index), fields_of(plan), index.version
    with index.trial():
        mutate(index, mutations)
    index.flush()
    assert snapshot(index) == before
    assert fields_of(plan) == fields
    assert index.version == version
    assert snapshot(PlanIndex(plan)) == before


def test_last_producer_wins_and_first_producer_orders():
    plan = clone_plan(planned(build_pagerank_program(120, 0.05, iterations=2)))
    index = PlanIndex(plan)
    victim = next(s for s in plan.steps if isinstance(s, ExtendedStep))
    twin = ExtendedStep(victim.kind, victim.source, victim.target)
    keys_before = list(index.producer_map())
    index.append(twin)
    assert index.producer(victim.target) is twin  # the later producer is read
    assert list(index.producer_map()) == keys_before  # ...in the first one's slot
    index.remove(twin)
    assert index.producer(victim.target) is victim


# -- bugfix: handles, not id(), name the steps a session has rewritten ---------


@pytest.mark.parametrize("plan_fixture", ["svd_plan", "linreg_plan"])
def test_no_emitted_step_is_born_done(plan_fixture, request, monkeypatch):
    """``_done`` used to hold ``id(step)`` of steps that were then removed
    and freed; a chain step allocated at a recycled address was "already
    rewritten" at birth (351 of 3,642 in SVD) and silently skipped."""
    plan = clone_plan(request.getfixturevalue(plan_fixture))
    eliminate_common_steps(plan)
    index = PlanIndex(plan)
    born = []
    append = PlanIndex.append

    def checked_append(self, step):
        append(self, step)
        born.append(self.handle(step) in session._done)

    monkeypatch.setattr(PlanIndex, "append", checked_append)
    for candidate in coalesce._candidates(index):
        with index.trial():
            session = coalesce._FlipSession(index, dict(plan.outputs))
            try:
                coalesce._apply_candidate(session, candidate)
            except PlanError:
                pass
    assert len(born) > 100 and not any(born)


# -- the complexity gate: counts that repeat exactly --------------------------


def counted(plan):
    counters = collections.Counter()
    return optimize_plan(plan, num_workers=4, counters=counters), counters


def test_counts_repeat_exactly_and_stay_inside_the_gate(svd_plan):
    optimized, counters = counted(svd_plan)
    assert counted(svd_plan)[1] == counters
    # One index per optimize_plan plus one per costed candidate (and one
    # when fusion swaps steps in place): never one per query.
    assert counters["index_builds"] <= (
        counters["pipeline_rounds"] + counters["candidates_applied"]
    )
    fused = any(r.pass_name == "fuse" for r in optimized.rewrites)
    assert counters["index_builds"] == 1 + fused + counters["candidates_applied"]
    # 96 candidates were cloned and costed before PR 13.
    assert counters["candidates_applied"] <= 40
    assert counters["candidates_applied"] <= counters["candidates_enumerated"]
    assert counters["candidates_accepted"] == sum(
        r.pass_name == "coalesce" for r in optimized.rewrites
    )


def test_a_flip_cascade_never_scans_the_plan(svd_plan):
    plan = clone_plan(svd_plan)
    index = PlanIndex(plan)
    candidates = coalesce._candidates(index)
    steps, scans, builds = plan.steps, index.counters["plan_scans"], 1
    flips = 0
    for candidate in candidates:
        with index.trial():
            session = coalesce._FlipSession(index, dict(plan.outputs))
            try:
                coalesce._apply_candidate(session, candidate)
            except PlanError:
                pass
            flips += len(session._done)
    assert flips > 500  # the cascades did run
    assert index.counters["plan_scans"] == scans
    assert index.counters["index_builds"] == builds
    assert plan.steps is steps  # untouched: sessions live in the index


@pytest.mark.parametrize("app", ["svd", "pagerank", "linreg"])
def test_skipping_known_outcomes_changes_no_plan(app, monkeypatch):
    """Reference: cost every candidate, every round, on every call."""
    params = WorkloadParams(scale=1e-3, rows=400, features=40, iterations=3, rank=4)
    plan = planned(build_workload(app, params).program)
    pruned, counters = counted(plan)
    evaluate, search = coalesce._evaluate, pipeline.coalesce_repartitions

    def evaluate_repeats(index, candidate, seen, *args):
        return evaluate(index, candidate, set(), *args)

    def search_again(plan, *, index, **kwargs):
        index.fixpoints.clear()
        return search(plan, index=index, **kwargs)

    monkeypatch.setattr(coalesce, "_evaluate", evaluate_repeats)
    monkeypatch.setattr(pipeline, "coalesce_repartitions", search_again)
    exhaustive, reference = counted(plan)
    assert exhaustive.describe() == pruned.describe()
    assert exhaustive.rewrites == pruned.rewrites
    assert exhaustive.predicted_bytes == pruned.predicted_bytes
    assert reference["candidates_applied"] >= counters["candidates_applied"]
