"""The one cost model: every predicted byte, flop and second comes from
``repro.core.cost``.

``golden_costs.json`` was captured on the commit *before* the model was
unified (PR 20's parent), with that tree's own functions -- per registry
app (per segment for ``powiter``), raw and optimized, 4 workers, registry
default sizes: ``plan.predicted_bytes`` (both estimation modes),
``explain``'s by-stage bytes, ``serve.admission.predict_flops(program)``,
``elastic.policies.plan_stage_flop_weights(plan)``,
``advisor.estimate_program_flops(program)`` and
``serve.admission.predict_runtime_seconds``.  Those functions are gone; the
table must reproduce every number they printed, except the two deliberate
changes asserted below beside the old values.  Never regenerate the file:
its ``gnmf/optimized`` and ``cf/optimized`` entries alone were re-captured
when the optimizer started associating product chains by the cost model
and multiplying two replicas replicated (``bmm``).
"""

import json
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ClusterConfig, DMacSession
from repro.config import ClockConfig
from repro.core.analysis import explain
from repro.core.cost import CostModel, seconds
from repro.core.plan import ExtendedStep, FusedCellwiseStep, SourceStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.frontend.staged import segments_of
from repro.lang.program import ProgramBuilder
from repro.lint import LintContext, lint_plan
from repro.planopt import PASSES, optimize_plan
from repro.programs.registry import ALL_APPS, build_workload
from tests.core.test_properties import random_programs

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_costs.json").read_text()
)
WORKERS = 4

#: Deliberate change (a): an optimized plan is priced by the steps that
#: will run, not by the program's operators, so work CSE removed is no
#: longer charged.  app -> (what the parent admitted on, the table).
OPTIMIZED_FLOPS = {
    "pagerank": (239_977_510, 239_957_918),
    "linreg": (357_525, 357_285),
    "svd": (71_290, 71_078),
}

#: Deliberate change (b): a whole program is priced with the full
#: convention (scalar-matrix, row-agg and aggregate cells counted), which
#: the old ``estimate_program_flops`` skipped.  app -> (the parent's
#: ``estimate_program_flops``, the table).
ADVISOR_FLOPS = {
    "gnmf": (40_962_720, 40_962_720),
    "pagerank": (239_928_530, 239_977_510),
    "linreg": (354_880, 357_525),
    "logreg": (342_400, 344_800),
    "jacobi": (4_833_292, 4_835_292),
    "cf": (8_343_896, 8_496_536),
    "svd": (69_160, 71_290),
}


@pytest.fixture(scope="module")
def segments():
    """app -> ((label, program), ...), built once."""
    return {
        app: segments_of(build_workload(app).program).programs for app in ALL_APPS
    }


def golden_cases():
    for key in sorted(GOLDEN):
        app, *label, variant = key.split("/")
        yield pytest.param(app, label[0] if label else None, variant, id=key)


@pytest.mark.parametrize("app,label,variant", golden_cases())
def test_table_reproduces_the_parents_numbers(segments, app, label, variant):
    golden = GOLDEN["/".join(filter(None, (app, label, variant)))]
    program = dict(segments[app])[label]
    optimize = variant == "optimized"
    cluster = ClusterConfig(num_workers=WORKERS)
    plan = DMacSession(cluster, optimize=optimize).plan(program)
    # A reassociated plan is priced against the program it announces.
    table = CostModel(plan.program, WORKERS).price(plan)

    assert plan.predicted_bytes == table.bytes == golden["predicted_bytes"]
    by_stage = {int(stage): n for stage, n in golden["bytes_by_stage"].items()}
    assert table.bytes_by_stage == by_stage
    assert explain(plan, WORKERS).predicted_bytes_by_stage == by_stage
    average = DMacSession(cluster, optimize=optimize, estimation_mode="average")
    assert (
        average.plan(program).predicted_bytes == golden["predicted_bytes_average"]
    )

    assert table.flops_by_stage == golden["stage_flop_weights"]
    old_flops, new_flops = golden["predict_flops"], golden["predict_flops"]
    if optimize and app in OPTIMIZED_FLOPS:
        old_flops, new_flops = OPTIMIZED_FLOPS[app]
        assert old_flops == golden["predict_flops"] and new_flops < old_flops
    assert table.flops == new_flops

    predicted = seconds(
        table.bytes, old_flops, plan.num_stages, cluster.clock, WORKERS,
        cluster.threads_per_worker,
    )
    assert predicted.network + predicted.compute == golden["predict_runtime_seconds"]
    assert predicted.overhead == plan.num_stages * cluster.clock.latency_per_stage_sec


@pytest.mark.parametrize("app", sorted(ADVISOR_FLOPS))
def test_advisor_prices_with_the_full_convention(segments, app):
    ((__, program),) = segments[app]
    old_flops, new_flops = ADVISOR_FLOPS[app]
    golden = GOLDEN[f"{app}/raw"]
    assert old_flops == golden["estimate_program_flops"]
    assert new_flops == golden["predict_flops"] >= old_flops
    plan = schedule_stages(DMacPlanner(program, WORKERS).plan())
    table = CostModel(program, WORKERS).price(plan)
    assert table.bytes == golden["predicted_bytes"]
    assert table.flops == new_flops
    predicted = seconds(table.bytes, table.flops, plan.num_stages, ClockConfig(), WORKERS, 8)
    assert predicted.compute == new_flops / (ClockConfig().dense_flops_per_sec * 8 * WORKERS)


# -- the work convention, one operator at a time --------------------------


def _flop_case(kind):
    pb = ProgramBuilder()
    a = pb.load("A", (10, 20), sparsity=0.1 if kind == "sparse-matmul" else 1.0)
    if kind in ("dense-matmul", "sparse-matmul"):
        pb.output(pb.assign("C", a @ pb.load("B", (20, 5))))
    elif kind == "aggregate":
        pb.scalar_output(pb.scalar("s", a.sum()))
    else:
        expr = {
            "cellwise": a + a,
            "scalar-matrix": a * 3.0,
            "unary": a.abs(),
            "row-agg": a.row_sums(),
            "transposed-operand": a.T * 2.0,
        }[kind]
        pb.output(pb.assign("C", expr))
    return pb.build()


FLOP_CASES = {
    "dense-matmul": 2 * 10 * 20 * 5,
    "sparse-matmul": int(2 * 10 * 20 * 5 * 0.1),
    "cellwise": 200,
    "scalar-matrix": 200,
    "unary": 200,
    "row-agg": 200,
    "aggregate": 200,
    "transposed-operand": 200,
}


@pytest.mark.parametrize("kind,flops", FLOP_CASES.items(), ids=FLOP_CASES)
def test_flop_convention(kind, flops):
    program = _flop_case(kind)
    planner = DMacPlanner(program, WORKERS)
    plan = schedule_stages(planner.plan())
    table = planner.cost.price(plan)
    assert table.flops == flops
    for step, row in zip(plan.steps, table.rows):
        if isinstance(step, (SourceStep, ExtendedStep)):
            assert row.flops == 0  # sources and transfers are negligible


def test_seconds_has_three_components():
    clock = ClockConfig()
    predicted = seconds(1_000_000, 8_000_000, 3, clock, 2, 2)
    assert predicted.network == 1_000_000 / clock.network_bytes_per_sec
    assert predicted.compute == 8_000_000 / (clock.dense_flops_per_sec * 2 * 2)
    assert predicted.overhead == 3 * clock.latency_per_stage_sec


def test_paper_pricing_is_the_same_walk_with_n_replicas():
    """``N x |A|`` where the ledger books ``(N - 1) x |A|``: at one worker
    the ledger charge of a broadcast vanishes, the decision price does not."""
    program = build_workload("gnmf").program
    plan = DMacPlanner(program, WORKERS).plan()
    ledger = CostModel(program, WORKERS)
    paper = CostModel(program, WORKERS, replicas=WORKERS)
    for step in plan.steps:
        if isinstance(step, ExtendedStep) and step.kind == "partition":
            assert paper.comm_bytes(step) == ledger.comm_bytes(step) > 0
        elif step.communicates:
            assert paper.comm_bytes(step) * (WORKERS - 1) == (
                ledger.comm_bytes(step) * WORKERS
            )
        else:
            assert paper.comm_bytes(step) == ledger.comm_bytes(step) == 0


# -- properties on generated programs --------------------------------------


@given(
    random_programs(),
    st.sampled_from([1, 2, 4, 7]),
    st.sampled_from(["worst", "average"]),
    st.booleans(),
)
def test_table_invariants_on_random_programs(generated, workers, mode, optimize):
    program, __ = generated
    plan = schedule_stages(
        DMacPlanner(program, workers, estimation_mode=mode).plan()
    )
    if optimize:
        unfused = optimize_plan(
            plan,
            num_workers=workers,
            estimation_mode=mode,
            passes=tuple(name for name in PASSES if name != "fuse"),
        )
        plan = optimize_plan(plan, num_workers=workers, estimation_mode=mode)
        assert unfused.program == plan.program
    # A reassociated plan is priced against the program it announces.
    model = CostModel(plan.program, workers, mode)
    if optimize:
        # A fused step is the sum of its chain.
        assert model.price(plan).flops == model.price(unfused).flops
    table = model.price(plan)
    assert table.bytes == plan.predicted_bytes == model.bytes(plan.steps)
    assert sum(table.bytes_by_stage.values()) == table.bytes
    assert sum(table.flops_by_stage) == table.flops
    assert [row.index for row in table.rows] == list(range(len(plan.steps)))
    assert [row.stage for row in table.rows] == [step.stage for step in plan.steps]
    report = lint_plan(plan, LintContext(num_workers=workers, estimation_mode=mode))
    assert not [d for d in report.diagnostics if d.rule == "DM104"]


def test_fused_step_is_priced_as_its_chain():
    program = build_workload("gnmf").program
    plan = DMacSession(ClusterConfig(num_workers=WORKERS), optimize=True).plan(program)
    model = CostModel(program, WORKERS)
    fused = [step for step in plan.steps if isinstance(step, FusedCellwiseStep)]
    assert fused
    for step in fused:
        assert model.flops(step) == sum(model.flops(inner) for inner in step.chain)
        assert model.comm_bytes(step) == 0
