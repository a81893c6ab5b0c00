"""Chain association: each product chain is multiplied in its flop-minimal
order, chosen by the cost model, and the reassociated plan is kept only
when it ships no more bytes and does fewer flops."""

import collections

import pytest

from repro import ClusterConfig, DMacSession
from repro.core.cost import CostModel
from repro.core.plan import MatMulStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lang.program import MatMulOp, ProgramBuilder
from repro.planopt import PASSES, optimize_plan
from repro.planopt.associate import reassociate
from repro.programs import build_gnmf_program, build_svd_program


def planned(program, workers=4):
    return schedule_stages(DMacPlanner(program, workers).plan())


def products(program):
    return {op.output: op for op in program.ops if isinstance(op, MatMulOp)}


def test_gnmf_multiplies_w_h_ht_as_w_times_h_ht():
    program = build_gnmf_program((60, 40), 0.05, factors=8, iterations=3)
    moved, rewrites = reassociate(program, CostModel(program, 4))
    assert [r.description.split(":")[0] for r in rewrites] == [
        f"multiplied _t{n} as (W{v} (H{h} H{h}^T)) instead of ((W{v} H{h}) H{h}^T)"
        for n, v, h in ((9, "", "@2"), (19, "@2", "@3"), (29, "@3", "@4"))
    ]
    ops = products(moved)
    assert (str(ops["_t8"].left), str(ops["_t8"].right)) == ("H@2", "H@2^T")
    assert (str(ops["_t9"].left), str(ops["_t9"].right)) == ("W", "_t8")
    assert moved.dims["_t8"] == (8, 8) and program.dims["_t8"] == (60, 40)
    assert moved.dims["_t9"] == program.dims["_t9"]
    # Only the chains moved: every other operator is the program's own.
    chains = {"_t8", "_t9", "_t18", "_t19", "_t28", "_t29"}
    assert all(op in moved.ops for op in program.ops if op.output not in chains)


def test_a_chain_already_in_order_is_left_alone():
    """svd's ``V^T (V vc)`` is in order: no program, no extra planner run."""
    program = build_svd_program((60, 40), 0.05, rank=3)[0]
    assert reassociate(program, CostModel(program, 4)) is None
    counters = collections.Counter()
    optimize_plan(planned(program), num_workers=4, counters=counters)
    assert counters["replans"] == 0


def chain(*shapes, visible=None):
    """``X = A0 @ A1 @ ...`` (left-associated), every operand loaded."""
    pb = ProgramBuilder()
    loads = [pb.load(f"A{i}", shape) for i, shape in enumerate(shapes)]
    value = loads[0]
    for index, load in enumerate(loads[1:], start=1):
        if visible == index:
            value = pb.assign("P", value @ load)
            continue
        value = value @ load
    pb.output(pb.assign("X", value))
    return pb.build()


def test_a_user_variable_is_not_an_intermediate():
    """``P = A0 A1; X = P A2`` names its intermediate: out of order, but
    not a chain."""
    program = chain((400, 8), (8, 50), (50, 8))
    assert reassociate(program, CostModel(program, 4)) is not None
    program = chain((400, 8), (8, 50), (50, 8), visible=1)
    assert reassociate(program, CostModel(program, 4)) is None


def orders(leaves):
    """Every full parenthesisation of ``leaves`` (Catalan many)."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for split in range(1, len(leaves)):
        for left in orders(leaves[:split]):
            for right in orders(leaves[split:]):
                yield (left, right)


def flops(tree, shapes):
    """``(flops, rows, cols)`` of multiplying dense operands in ``tree``."""
    if isinstance(tree, int):
        return (0, *shapes[tree])
    (lf, m, k), (rf, __, n) = flops(tree[0], shapes), flops(tree[1], shapes)
    return lf + rf + 2 * m * k * n, m, n


@pytest.mark.parametrize(
    "shapes",
    [
        [(400, 8), (8, 50), (50, 8)],
        [(400, 50), (50, 8), (8, 50)],
        [(30, 35), (35, 15), (15, 5), (5, 10)],
        [(10, 20), (20, 30), (30, 40), (40, 30)],
    ],
)
def test_the_order_is_the_cheapest_of_all(shapes):
    program = chain(*shapes)
    cost = CostModel(program, 4)
    left = 0
    for index in range(1, len(shapes)):
        left = (left, index)
    best = min(flops(tree, shapes)[0] for tree in orders(list(range(len(shapes)))))
    found = reassociate(program, cost)
    if best == flops(left, shapes)[0]:
        assert found is None
        return
    moved, (rewrite,) = found
    assert rewrite.pass_name == "associate"
    plan = DMacPlanner(moved, 4).plan()
    assert sum(
        CostModel(moved, 4).flops(step) for step in plan.steps if isinstance(step, MatMulStep)
    ) == best


def test_a_reassociation_that_would_ship_more_is_not_taken():
    """At 60 x 40 the reassociated GNMF plan ships 43,328 B after
    optimization and the program's own 35,648 B: one planner run, no
    ``associate`` in the trail, the user's program in the plan."""
    program = build_gnmf_program((60, 40), 0.05, factors=8, iterations=2)
    counters = collections.Counter()
    plan = optimize_plan(planned(program), num_workers=4, counters=counters)
    assert counters["replans"] == 1
    assert plan.program is program
    assert plan.predicted_bytes == 35_648
    assert not any(r.pass_name == "associate" for r in plan.rewrites)


def test_the_kept_plan_announces_its_program_and_leads_with_its_proof():
    program = build_gnmf_program((1440, 53), 0.02, factors=16, iterations=3)
    session = DMacSession(ClusterConfig(num_workers=4), optimize=True)
    plan = session.plan(program)
    without = tuple(name for name in PASSES if name != "associate")
    left = optimize_plan(planned(program), num_workers=4, passes=without)
    assert plan.program is not program and left.program is program
    assert [r.pass_name for r in plan.rewrites[:3]] == ["associate"] * 3
    lead = next(i for i, r in enumerate(plan.rewrites) if r.pass_name != "associate")
    assert lead == 3 and "replicate" in [r.pass_name for r in plan.rewrites]
    first = plan.certificates[0]
    assert (first.pass_name, first.rewrites) == ("associate", lead)
    assert plan.certificates[-1].rewrites == len(plan.rewrites)
    assert plan.predicted_bytes <= left.predicted_bytes
    assert (
        CostModel(plan.program, 4).price(plan).flops
        < CostModel(program, 4).price(left).flops
    )
    # The user's program is the one it was: same operators, same dims.
    assert products(program)["_t8"].left.name == "W"
    assert program.dims["_t8"] == (1440, 53)
