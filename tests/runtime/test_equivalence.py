"""Equivalence: the concurrent stage runtime moves time, never bytes.

For every example program, a serial (``max_concurrent_stages=1``) and a
concurrent run must produce identical per-scope ledgered bytes, identical
chosen strategies (the plan is the plan), identical numerical results and
identical simulated seconds (the clock charges the dependency-bound
schedule, not the host's dispatch order)."""

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.core.plan import MatMulStep
from repro.datasets import graph_edges, netflix_like, row_normalize, sparse_random
from repro.programs import (
    build_gnmf_program,
    build_linreg_program,
    build_pagerank_program,
)


def _workloads():
    gnmf_data = netflix_like(scale=1e-3, seed=3)
    gnmf = build_gnmf_program(
        gnmf_data.shape, 0.02, factors=4, iterations=2
    )
    # 326 nodes: 1 681 blocks at block_size=8.  (At scale=1e-3 the 41 616
    # blocks of a 1 632-node link cost these suites ~6 s per run.)
    link = row_normalize(graph_edges("soc-pokec", scale=2e-4, seed=4))
    pagerank = build_pagerank_program(link.shape[0], 0.05, iterations=2)
    design = sparse_random(120, 12, 0.1, seed=5)
    target = sparse_random(120, 1, 1.0, seed=6)
    linreg = build_linreg_program(design.shape, 0.1, iterations=2)
    return [
        ("gnmf", gnmf, {"V": gnmf_data}),
        ("pagerank", pagerank, {"link": link}),
        ("linreg", linreg, {"V": design, "y": target}),
    ]


def _session(max_concurrent):
    return DMacSession(
        ClusterConfig(
            num_workers=4,
            threads_per_worker=1,
            block_size=8,
            max_concurrent_stages=max_concurrent,
        )
    )


@pytest.mark.parametrize("app,program,inputs", _workloads(),
                         ids=lambda value: value if isinstance(value, str) else "")
def test_serial_and_concurrent_runs_are_equivalent(app, program, inputs):
    serial_session = _session(1)
    serial = serial_session.run(program, inputs)
    concurrent_session = _session(None)
    concurrent = concurrent_session.run(program, inputs)

    # Chosen strategies are identical step by step.
    serial_plan = serial_session.plan(program)
    concurrent_plan = concurrent_session.plan(program)
    assert [
        step.strategy for step in serial_plan.steps if isinstance(step, MatMulStep)
    ] == [
        step.strategy for step in concurrent_plan.steps
        if isinstance(step, MatMulStep)
    ]

    # Per-scope ledgered bytes are bit-identical.
    assert (
        serial_session.context.ledger.bytes_by_scope()
        == concurrent_session.context.ledger.bytes_by_scope()
    )
    assert serial.comm_bytes == concurrent.comm_bytes

    # Numerical results agree exactly (same kernels, same block order).
    assert serial.matrices.keys() == concurrent.matrices.keys()
    for name in serial.matrices:
        np.testing.assert_array_equal(
            serial.matrices[name], concurrent.matrices[name]
        )
    assert serial.scalars == concurrent.scalars

    # The simulated clock is deterministic across dispatch widths.
    assert serial.simulated_seconds == pytest.approx(
        concurrent.simulated_seconds, abs=1e-12
    )
    assert serial.num_stages == concurrent.num_stages


def test_traced_runs_report_identical_per_step_bytes():
    app, program, inputs = _workloads()[0]
    serial = _session(1).run(program, inputs, trace=True)
    concurrent = _session(None).run(program, inputs, trace=True)
    assert serial.trace is not None and concurrent.trace is not None
    assert [(t.step, t.stage, t.comm_bytes) for t in serial.trace] == [
        (t.step, t.stage, t.comm_bytes) for t in concurrent.trace
    ]
    assert serial.comm_by_stage() == concurrent.comm_by_stage()
