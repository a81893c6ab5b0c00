"""Property: the optimizer never changes results, only costs.

For every built-in program, the optimized and unoptimized runs must
produce *byte-identical* outputs (bitwise -- NaN patterns included, which
``np.array_equal`` would mishandle) while the optimized run moves no more
ledgered bytes than the unoptimized one.  The one rewrite that changes the
program, ``associate``, is held to its own contract: the optimized run
equals the unoptimized run of the program it announces (``plan.program``)
bit for bit, and the user's program to ``rtol=1e-12``.
"""

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
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
from repro.programs.registry import WorkloadParams, build_workload

PROGRAMS = {
    "gnmf": lambda: build_gnmf_program((60, 40), 0.05, factors=8, iterations=2),
    "pagerank": lambda: build_pagerank_program(120, 0.05, iterations=3),
    "linreg": lambda: build_linreg_program((80, 12), 0.1, iterations=2),
    "logreg": lambda: build_logreg_program((80, 12), 0.1, iterations=2),
    "jacobi": lambda: build_jacobi_program(50, 0.1, iterations=3),
    "cf": lambda: build_cf_program((40, 60), 0.05),
    # Big enough for ``W (H H^T)`` to win after optimization (at 60 x 40
    # the reassociated plan would ship more, so it is not taken).
    "gnmf-associated": lambda: build_gnmf_program(
        (120, 60), 0.05, factors=4, iterations=2
    ),
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


def assert_bitwise(expected, actual, label):
    assert set(expected.matrices) == set(actual.matrices)
    for out in expected.matrices:
        a, b = expected.matrices[out], actual.matrices[out]
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), f"{label}: output {out!r} diverged"
    assert set(expected.scalars) == set(actual.scalars)
    for out in expected.scalars:
        a, b = expected.scalars[out], actual.scalars[out]
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (
            f"{label}: scalar {out!r} diverged"
        )


#: The programs whose product chains the optimizer reassociates.
ASSOCIATED = {"cf", "gnmf-associated"}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimizer_preserves_results_and_never_moves_more(name):
    program = PROGRAMS[name]()
    inputs = inputs_for(program)
    config = ClusterConfig(num_workers=4)
    plain = DMacSession(config).run(program, inputs)
    session = DMacSession(config, optimize=True)
    (plan,) = session.plans(program)
    opt = session.run(program, inputs, plan=plan)

    associated = any(r.pass_name == "associate" for r in plan.rewrites)
    assert associated == (name in ASSOCIATED)
    if associated:
        announced = DMacSession(config).run(plan.program, inputs)
        assert_bitwise(announced, opt, name)
        for out in plain.matrices:
            np.testing.assert_allclose(
                opt.matrices[out], plain.matrices[out], rtol=1e-12, atol=0
            )
    else:
        assert plan.program is program
        assert_bitwise(plain, opt, name)

    assert opt.comm_bytes <= plain.comm_bytes, (
        f"{name}: optimizer moved more bytes "
        f"({opt.comm_bytes} > {plain.comm_bytes})"
    )


# -- an in-order product chain books what its fused form booked --------------

#: With 32 factors GNMF keeps its ``(W H) H^T`` order (``W (H H^T)`` would
#: ship more): the one registry configuration whose products once ran as a
#: fused row pipeline, one chain per iteration.
CHAIN_PARAMS = {"scale": 2e-3, "iterations": 3, "factors": 32}

#: ``(comm_bytes, num_stages, simulated_seconds.hex(), traced flops,
#: peak_memory_bytes)`` of GNMF at ``CHAIN_PARAMS`` on 4 workers x 1 thread
#: with serial stages, as the fused chains booked them.
CHAIN_BOOKS = {
    True: (239400, 8, "0x1.9bc7f77af6406p-1", 19617792, 158076),
    False: (239400, 8, "0x1.9bcdf60abc4f2p-1", 19983456, 193516),
}


@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_gnmf_in_chain_order_books_what_its_fused_chains_booked(inplace):
    load = build_workload("gnmf", WorkloadParams(**CHAIN_PARAMS))
    config = ClusterConfig(
        num_workers=4, threads_per_worker=1, max_concurrent_stages=1, inplace=inplace
    )
    plain = DMacSession(config).run(load.program, load.inputs)
    result = DMacSession(config, optimize=True).run(load.program, load.inputs, trace=True)
    flops = sum(step.flops for segment in result.segments for step in segment.result.trace)
    books = (
        result.comm_bytes,
        result.num_stages,
        result.simulated_seconds.hex(),
        flops,
        result.peak_memory_bytes,
    )
    assert books == CHAIN_BOOKS[inplace]
    assert_bitwise(plain, result, f"gnmf factors=32 inplace={inplace}")


# -- a spilled pin refills through its lineage ------------------------------

#: 4 workers x 2 threads whose cache budget holds one of the two chain pins
#: below; serial stages fix the publish order, so the LRU spills and
#: refills the pins the same way every run (3 spills, 2 refills).
SPILLING = ClusterConfig(
    num_workers=4, threads_per_worker=2, max_concurrent_stages=1, cache_limit_bytes=16000
)


def spilled_chains():
    """Two loop-invariant three-matrix chains, ``X = X + A @ B @ C`` and
    ``X = X + D @ E @ F``, that the optimizer hoists into two cache pins,
    each the output of two ``rmm2`` products."""
    pb = ProgramBuilder()
    shapes = {"A": (400, 64), "B": (64, 8), "C": (8, 32)}
    shapes.update(D=shapes["A"], E=shapes["B"], F=shapes["C"])
    a, b, c, d, e, f = (pb.load(name, shape) for name, shape in shapes.items())
    x = pb.full("X", (400, 32), 0.0)
    for __ in range(3):
        x = pb.assign("X", x + a @ b @ c)
        x = pb.assign("X", x + d @ e @ f)
    pb.output(x)
    rng = np.random.default_rng(7)
    return pb.build(), {name: rng.random(shape) for name, shape in shapes.items()}
