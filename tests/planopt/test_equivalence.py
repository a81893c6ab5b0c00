"""Property: the optimizer never changes results, only costs.

For every built-in program, the optimized and unoptimized runs must
produce *byte-identical* outputs (bitwise -- NaN patterns included, which
``np.array_equal`` would mishandle) while the optimized run moves no more
ledgered bytes than the unoptimized one.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.core.plan import ProductChainStep
from repro.core.stages import schedule_stages
from repro.faults import ChaosEngine, parse_fault_spec
from repro.faults.lineage import LineageTracker
from repro.lang.program import LoadOp, ProgramBuilder
from repro.programs import (
    build_cf_program,
    build_gnmf_program,
    build_jacobi_program,
    build_linreg_program,
    build_logreg_program,
    build_pagerank_program,
    build_svd_program,
)
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload
from repro.trace import TraceCollector, assert_reconciled
from tests.elastic.test_golden_books import FAULT_SEED, FAULTS, TIMELINE

PROGRAMS = {
    "gnmf": lambda: build_gnmf_program((60, 40), 0.05, factors=8, iterations=2),
    "pagerank": lambda: build_pagerank_program(120, 0.05, iterations=3),
    "linreg": lambda: build_linreg_program((80, 12), 0.1, iterations=2),
    "logreg": lambda: build_logreg_program((80, 12), 0.1, iterations=2),
    "jacobi": lambda: build_jacobi_program(50, 0.1, iterations=3),
    "cf": lambda: build_cf_program((40, 60), 0.05),
    "svd": lambda: build_svd_program((60, 40), 0.05, rank=3)[0],
}


def inputs_for(program, seed=7):
    """Deterministic dense-random inputs thinned to each load's declared
    sparsity (the exact values are irrelevant: both runs see the same)."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for op in program.ops:
        if isinstance(op, LoadOp):
            array = rng.random((op.rows, op.cols))
            if op.sparsity < 1.0:
                array[array > op.sparsity] = 0.0
            inputs[op.output] = array
    return inputs


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimizer_preserves_results_and_never_moves_more(name):
    program = PROGRAMS[name]()
    inputs = inputs_for(program)
    plain = DMacSession(ClusterConfig(num_workers=4)).run(program, inputs)
    opt = DMacSession(ClusterConfig(num_workers=4), optimize=True).run(
        program, inputs
    )

    assert set(plain.matrices) == set(opt.matrices)
    for out in plain.matrices:
        a, b = plain.matrices[out], opt.matrices[out]
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), f"{name}: output {out!r} diverged"
    assert set(plain.scalars) == set(opt.scalars)
    for out in plain.scalars:
        a, b = plain.scalars[out], opt.scalars[out]
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (
            f"{name}: scalar {out!r} diverged"
        )

    assert opt.comm_bytes <= plain.comm_bytes, (
        f"{name}: optimizer moved more bytes "
        f"({opt.comm_bytes} > {plain.comm_bytes})"
    )


# -- product chains against their links --------------------------------------

#: Registry sizes small enough to run every app four times.
CHAIN_PARAMS = {"scale": 2e-3, "iterations": 3, "rows": 300, "features": 30, "eps": 1e-4}


def expand_chains(plan):
    """The plan with every product chain expanded back into its links."""
    steps = [
        copy.copy(link)
        for step in plan.steps
        for link in (step.chain if isinstance(step, ProductChainStep) else (step,))
    ]
    return schedule_stages(dataclasses.replace(plan, steps=steps))


def chain_books(app, *, expand, inplace=True, elastic=None, faults=None, tracer=None):
    """Outputs and every deterministic book of one optimized run, with the
    chain steps fused (as planned) or expanded into their links."""
    load = build_workload(app, WorkloadParams(**CHAIN_PARAMS))
    session = DMacSession(
        ClusterConfig(
            num_workers=4, threads_per_worker=2, inplace=inplace, elastic=elastic
        ),
        optimize=True,
    )
    plans = session.plans(load.program)
    # A chain's label reads as its first link's: the link that fetched the
    # inputs (and recovered a lost one) when the links ran as steps.
    labels = {
        str(step): str(step.chain[0])
        for plan in plans
        for step in plan.steps
        if isinstance(step, ProductChainStep)
    }
    if expand:
        plans = tuple(map(expand_chains, plans))
    chaos = ChaosEngine(FAULT_SEED, parse_fault_spec(faults)) if faults else None
    result = session.run(
        load.program, load.inputs, plan=plans, trace=True, chaos=chaos, tracer=tracer
    )
    records = sorted(
        (
            record.kind,
            record.nbytes,
            "/".join(labels.get(part, part) for part in record.scope.split("/")),
            record.link,
        )
        for record in session.context.ledger.records()
    )
    return len(labels), result, {
        "outputs": {name: array.tobytes() for name, array in result.matrices.items()},
        "scalars": {name: float(value).hex() for name, value in result.scalars.items()},
        "comm_bytes": result.comm_bytes,
        "simulated_seconds": result.simulated_seconds.hex(),
        "ledger": records,
        "flops": sum(
            step.flops for segment in result.segments for step in segment.result.trace
        ),
    }


@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
@pytest.mark.parametrize("app", ALL_APPS)
def test_a_fused_chain_runs_as_its_links_did(app, inplace):
    chains, __, fused = chain_books(app, expand=False, inplace=inplace)
    assert chains == (3 if app == "gnmf" else 0)
    assert chain_books(app, expand=True, inplace=inplace)[2] == fused


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["churn", "churn-faults"])
def test_a_recovered_chain_runs_as_its_links_did(monkeypatch, faults):
    """The timeline's leave loses ``W@2``, whose recovery cone re-runs the
    chain that produced ``_t9``."""
    cones = []
    cone = LineageTracker.recovery_cone

    def recorded(self, instance, available):
        steps = cone(self, instance, available)
        cones.append([self.plan.steps[index] for index in steps])
        return steps

    monkeypatch.setattr(LineageTracker, "recovery_cone", recorded)
    tracer = TraceCollector()
    __, fused, books = chain_books(
        "gnmf", expand=False, elastic=TIMELINE, faults=faults, tracer=tracer
    )
    assert any(isinstance(step, ProductChainStep) for steps in cones for step in steps)
    __, links, expanded_books = chain_books(
        "gnmf", expand=True, elastic=TIMELINE, faults=faults
    )
    assert books == expanded_books
    assert fused.recovery == links.recovery
    assert_reconciled(tracer)


# -- a spilled chain pin refills as its links ---------------------------------

#: 4 workers x 2 threads whose cache budget holds one of the two chain pins
#: below; serial stages fix the publish order, so the LRU spills and
#: refills the pins the same way every run (3 spills, 2 refills).
SPILLING = ClusterConfig(
    num_workers=4, threads_per_worker=2, max_concurrent_stages=1, cache_limit_bytes=16000
)


def spilled_chains():
    """Two loop-invariant three-matrix chains, ``X = X + A @ B @ C`` and
    ``X = X + D @ E @ F``, that the optimizer hoists into two cache pins,
    each a fused product chain."""
    pb = ProgramBuilder()
    shapes = {"A": (400, 64), "B": (64, 64), "C": (64, 32)}
    shapes.update(D=shapes["A"], E=shapes["B"], F=shapes["C"])
    a, b, c, d, e, f = (pb.load(name, shape) for name, shape in shapes.items())
    x = pb.full("X", (400, 32), 0.0)
    for __ in range(3):
        x = pb.assign("X", x + a @ b @ c)
        x = pb.assign("X", x + d @ e @ f)
    pb.output(x)
    rng = np.random.default_rng(7)
    return pb.build(), {name: rng.random(shape) for name, shape in shapes.items()}


def test_a_refilled_chain_costs_what_its_links_cost():
    """A spilled pin produced by a chain is rebuilt link by link: before
    one rebuild path, a refill ran the chain as one kernel and dropped the
    flops of links >= 1 (16,460,800 vs 19,737,600)."""
    program, inputs = spilled_chains()
    books = []
    for expand in (False, True):
        session = DMacSession(SPILLING, optimize=True)
        plans = session.plans(program)
        assert sum(isinstance(s, ProductChainStep) for p in plans for s in p.steps) == 2
        if expand:
            plans = tuple(map(expand_chains, plans))
        result = session.run(program, inputs, plan=plans, trace=True)
        assert result.cache["refilled"] == 2
        books.append(
            (
                {name: array.tobytes() for name, array in result.matrices.items()},
                sum(step.flops for seg in result.segments for step in seg.result.trace),
                result.simulated_seconds.hex(),
                result.comm_bytes,
                result.cache,
            )
        )
    assert books[0] == books[1]
