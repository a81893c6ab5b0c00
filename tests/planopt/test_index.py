"""The optimizer's def-use index (repro.planopt.index) and the counts that
guard what it bought: no per-query rebuilds, no scans inside a cascade,
no fork for a candidate that is only being priced."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.core.plan import CellwiseStep, ExtendedStep, MatrixInstance
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.frontend.staged import segments_of
from repro.matrix.schemes import Scheme
from repro.planopt import coalesce, cse, optimize_plan, pipeline
from repro.planopt.common import clone_plan
from repro.planopt.cse import eliminate_common_steps, merge_touched_duplicate
from repro.planopt.dce import dead_among, dead_steps
from repro.planopt.index import PlanIndex
from repro.programs import build_linreg_program, build_pagerank_program
from repro.programs.registry import SPECS, WorkloadParams, build_workload

#: Small sizes for the sweeps over every registry app (those of the golden plans).
SMALL = WorkloadParams(scale=1e-3, rows=400, features=40, iterations=3, factors=8, rank=4)

#: Every program the registry plans: each app, and both segments of a staged one.
PROGRAMS = {
    f"{spec.name}-{label}" if label else spec.name: program
    for spec in SPECS
    for label, program in segments_of(build_workload(spec.name, SMALL).program).programs
}


def planned(program, workers=4):
    return schedule_stages(DMacPlanner(program, workers).plan())


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
    outputs, table = plan.outputs, dict(plan.outputs)
    with index.trial():
        mutate(index, mutations)
        plan.outputs["probe"] = next(iter(table.values()))
        while merge_touched_duplicate(index, index.touched()[0]):
            pass
        handles, released = index.touched()
        suspects = [index.get(h) for h in handles if index.get(h) is not None]
        suspects += [step for instance in released for step in index.producers(instance)]
        dead = dead_among(index, suspects, set())
        # no cycle, nothing read twice: the seeded sweep is the full one
        if not isinstance(snapshot(index)["toposorted"], str):
            assert {h for h in dead if index.get(h) is not None} <= {
                index.handle(step) for step in dead_steps(index)
            }
    index.flush()
    assert snapshot(index) == before
    assert fields_of(plan) == fields
    assert plan.outputs is outputs and outputs == table
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
            session = coalesce._FlipSession(index)
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
    # One index per optimize_plan plus one per candidate *built* (and one
    # when fusion swaps steps in place): never one per query, and since
    # PR 21 never one per candidate priced (`candidates_forked` is PR 13's
    # `candidates_applied` renamed: every candidate is applied, in a trial).
    fused = any(r.pass_name == "fuse" for r in optimized.rewrites)
    assert counters["index_builds"] == 1 + fused + counters["candidates_forked"] <= 4
    # 96 candidates were cloned and costed before PR 13, 37 before PR 21.
    assert counters["candidates_enumerated"] == 62
    assert counters["candidates_forked"] <= 2
    assert counters["plan_scans"] <= 126  # PR 21's parent
    assert counters["candidates_accepted"] == 1 == sum(
        r.pass_name == "coalesce" for r in optimized.rewrites
    )
    # ...so the second round, which accepts nothing, forked nothing.
    assert counters["candidates_forked"] == counters["candidates_accepted"]


def test_a_round_that_accepts_nothing_forks_nothing(svd_plan):
    """At its fixpoint svd still enumerates candidates; pricing them all
    builds no plan and no index."""
    rounds = tuple(p for p in pipeline.DEFAULT_PASSES if p.name in ("cse", "coalesce", "dce"))
    plan = clone_plan(optimize_plan(svd_plan, num_workers=4, passes=rounds))
    index = PlanIndex(plan, counters=collections.Counter())
    costs = [CostModel(plan.program, 4, mode) for mode in ("worst", "average")]
    assert not coalesce.coalesce_repartitions(
        plan, cost=costs[0], cross_cost=costs[1], index=index
    )
    assert index.counters["candidates_enumerated"] > 20
    assert index.counters["candidates_forked"] == 0
    assert index.counters["index_builds"] == 1


def test_a_flip_cascade_never_scans_the_plan(svd_plan):
    plan = clone_plan(svd_plan)
    index = PlanIndex(plan)
    candidates = coalesce._candidates(index)
    steps, scans, builds = plan.steps, index.counters["plan_scans"], 1
    flips = 0
    for candidate in candidates:
        with index.trial():
            session = coalesce._FlipSession(index)
            try:
                coalesce._apply_candidate(session, candidate)
            except PlanError:
                pass
            flips += len(session._done)
    assert flips > 500  # the cascades did run
    assert index.counters["plan_scans"] == scans
    assert index.counters["index_builds"] == builds
    assert plan.steps is steps  # untouched: sessions live in the index


# -- price in trial, validate the head: same prices, same plans ------------------


def fork_price(index, candidate, cost, *__, build=coalesce._build):
    """What a candidate cost before PR 21: build it, read the fork (with the
    real ``_build``, whatever a test has patched into the module)."""
    fork = build(index, candidate, cost)
    return fork.plan.predicted_bytes, len(fork.plan.steps)


@pytest.mark.parametrize("name", PROGRAMS)
def test_the_in_trial_price_is_the_forks_price(name, monkeypatch):
    """Every candidate of every round, workers {2, 4, 7} x both sparsity
    models: the price read off the trial is the price of the plan the fork
    path builds, and what the fork path refuses the head validation
    refuses too (it *is* the fork path, run again once the trial is undone)."""
    price, build = coalesce._price, coalesce._build
    checked, refused = [], []

    def oracle(index, candidate, cost, *rest):
        try:
            want = fork_price(index, candidate, cost)
        except PlanError:
            want = None
            refused.append(candidate)
        try:
            got = price(index, candidate, cost, *rest)
        except PlanError:
            assert want is None, candidate[3]  # only the fork may be stricter
            raise
        if want is not None:
            checked.append(candidate)
            assert got == want, candidate[3]
        return got

    def head(index, candidate, cost):
        fork = build(index, candidate, cost)
        assert not any(candidate is other for other in refused), candidate[3]
        return fork

    monkeypatch.setattr(coalesce, "_price", oracle)
    monkeypatch.setattr(coalesce, "_build", head)
    for workers in (2, 4, 7):
        plan = planned(PROGRAMS[name], workers)
        for mode in ("worst", "average"):
            optimize_plan(plan, num_workers=workers, estimation_mode=mode)
    assert checked


@pytest.mark.parametrize("name", ["pagerank", "linreg", "svd", "gnmf"])
def test_the_in_trial_price_merges_twins_and_revives_garbage(name, monkeypatch):
    """The registry's plans exercise neither, so plant both: dead
    conversions that a cascade's chain may pick up again, and a second copy
    of two cellwise steps in the opposite layout, which a flip turns into a
    CSE duplicate of the first."""
    program = PROGRAMS[name]
    plan = clone_plan(planned(program))
    index = PlanIndex(plan)
    eliminate_common_steps(plan, index)
    convert = coalesce._FlipSession(index).emit_chain  # appends the missing hops
    for instance in list(index.producer_map())[::5]:
        for scheme in Scheme:
            target = MatrixInstance(instance.name, instance.transposed, scheme)
            if index.producer(target) is None:
                convert(instance, target)
                break
    cellwise = [
        step
        for step in index.steps()
        if isinstance(step, CellwiseStep) and step.output.scheme.is_one_dimensional
    ]
    for step in cellwise[:2]:
        scheme = step.output.scheme.opposite
        left = MatrixInstance(step.left.name, step.left.transposed, scheme)
        right = MatrixInstance(step.right.name, step.right.transposed, scheme)
        twin = MatrixInstance(f"{step.output.name}_twin", step.output.transposed, scheme)
        convert(step.left, left)
        convert(step.right, right)
        index.append(CellwiseStep(step.op, left, right, twin))
        plan.outputs[twin.name] = twin
    index.toposort()
    cost = CostModel(program, 4, "worst")
    rows = {index.handle(step): cost.comm_bytes(step) for step in plan.steps}
    plan.predicted_bytes = sum(rows.values())
    garbage = {index.handle(step) for step in dead_steps(index)}
    assert len(garbage) >= 3
    merge, sweep = cse._merge, coalesce.dead_among
    merges, revived, checked = [], [], 0

    def counted_merge(index, kept, dup):
        merges.append(index._log is not None)  # in a trial, not in the fork
        return merge(index, kept, dup)

    def counted_sweep(index, suspects, garbage):
        dead = sweep(index, suspects, garbage)
        revived.extend(h for h in garbage - dead if index.get(h) is not None)
        return dead

    monkeypatch.setattr(cse, "_merge", counted_merge)
    monkeypatch.setattr(coalesce, "dead_among", counted_sweep)
    for candidate in coalesce._candidates(index):
        try:
            want = fork_price(index, candidate, cost)
        except PlanError:
            continue
        assert coalesce._price(index, candidate, cost, rows, garbage) == want, candidate[3]
        checked += 1
    assert checked > 10 and any(merges) and revived


@pytest.mark.parametrize("name", PROGRAMS)
def test_skipping_known_outcomes_changes_no_plan(name, monkeypatch):
    """Reference: fork every candidate, every round, on every call."""
    plan = planned(PROGRAMS[name])
    priced, counters = counted(plan)
    search = pipeline.coalesce_repartitions

    def search_again(plan, *, index, **kwargs):
        index.fixpoints.clear()
        return search(plan, index=index, **kwargs)

    monkeypatch.setattr(coalesce, "_price", fork_price)
    monkeypatch.setattr(pipeline, "coalesce_repartitions", search_again)
    exhaustive, reference = counted(plan)
    assert exhaustive.describe() == priced.describe()
    assert exhaustive.rewrites == priced.rewrites
    assert exhaustive.predicted_bytes == priced.predicted_bytes
    assert reference["candidates_forked"] >= counters["candidates_forked"]
