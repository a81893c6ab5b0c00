"""Smoke benchmark — the concurrent stage runtime vs the serial order.

Tiny shapes (CI-friendly): each paper application runs twice, once with
``max_concurrent_stages=1`` (the historical serial dispatch) and once with
the concurrent scheduler.  Two properties are asserted, not just reported:

* **ledger and clock equivalence** -- the per-scope communication ledger
  *and* the simulated seconds are bit-identical between the two runs: the
  clock charges the dependency-bound schedule, which does not depend on
  how many stages the host actually dispatched at once;
* **critical-path clock** -- the charged seconds are no more than the old
  serial sum of per-stage durations (equal when the graph is a chain);
  the difference is the overlap the concurrent runtime wins.
"""

from __future__ import annotations

from harness import bench_clock, density, fmt_secs, report
from repro import ClusterConfig, DMacSession
from repro.datasets import graph_edges, netflix_like, row_normalize, sparse_random
from repro.programs import (
    build_gnmf_program,
    build_linreg_program,
    build_pagerank_program,
)


def _workloads():
    gnmf_data = netflix_like(scale=1e-3, seed=7)
    gnmf = build_gnmf_program(
        gnmf_data.shape, density(gnmf_data), factors=4, iterations=2
    )
    link = row_normalize(graph_edges("soc-pokec", scale=1e-3, seed=8))
    pagerank = build_pagerank_program(link.shape[0], density(link), iterations=2)
    design = sparse_random(200, 16, 0.1, seed=9)
    target = sparse_random(200, 1, 1.0, seed=10)
    linreg = build_linreg_program(design.shape, density(design), iterations=2)
    return [
        ("GNMF", gnmf, {"V": gnmf_data}),
        ("PageRank", pagerank, {"link": link}),
        ("LinReg", linreg, {"V": design, "y": target}),
    ]


def _run(program, inputs, max_concurrent):
    session = DMacSession(
        ClusterConfig(
            num_workers=4,
            threads_per_worker=1,
            block_size=16,
            clock=bench_clock(),
            max_concurrent_stages=max_concurrent,
        )
    )
    result = session.run(program, inputs)
    return result, session.context.ledger.bytes_by_scope()


def test_runtime_smoke(benchmark):
    loads = _workloads()
    benchmark.pedantic(
        _run, args=(loads[0][1], loads[0][2], None), rounds=1, iterations=1
    )
    rows = []
    for app, program, inputs in loads:
        serial, serial_scopes = _run(program, inputs, 1)
        concurrent, concurrent_scopes = _run(program, inputs, None)
        assert serial_scopes == concurrent_scopes, (
            f"{app}: concurrent scheduling changed the communication ledger"
        )
        assert abs(
            concurrent.simulated_seconds - serial.simulated_seconds
        ) < 1e-9, f"{app}: simulated time depends on the dispatch width"
        serial_sum = sum(t.duration_seconds for t in concurrent.stage_timings)
        assert concurrent.simulated_seconds <= serial_sum + 1e-9, (
            f"{app}: critical-path time exceeds the serial sum"
        )
        overlap = serial_sum - concurrent.simulated_seconds
        rows.append(
            [
                app,
                f"{serial.comm_bytes / 1e6:.3f} MB",
                fmt_secs(serial_sum),
                fmt_secs(concurrent.simulated_seconds),
                fmt_secs(overlap),
            ]
        )
    report(
        "bench_runtime_smoke",
        "Concurrent stage runtime vs serial dispatch (tiny shapes)",
        ["app", "comm (both)", "serial sum", "critical path", "overlap won"],
        rows,
        notes="Ledger scopes and simulated seconds are asserted identical "
        "between serial and concurrent dispatch; the last column is the "
        "time the critical-path clock saves over the old serial sum.",
    )
