"""Structured tracing -- its cost when on, and its *absence* of cost when off.

Every emit site in the metering/scheduling/caching layers guards on one
module-global read (``repro.trace.emit.active_tracer() is None``), so a
build with tracing off must run at the same wall-clock speed as before the
subsystem existed, and must produce bit-identical simulated metrics either
way.  This benchmark measures both: the guard's per-call cost, and the
end-to-end wall delta of a traced vs untraced PageRank run (whose ledgered
bytes, simulated seconds and reconciliation are asserted, not eyeballed).
"""

from __future__ import annotations

import time

from harness import bench_clock, fmt_secs, report
from repro import ClusterConfig, DMacSession
from repro.datasets import graph_edges, row_normalize
from repro.programs import build_pagerank_program
from repro.trace import TraceCollector, assert_reconciled
from repro.trace.emit import active_tracer

CONFIG = dict(
    num_workers=4, threads_per_worker=2, block_size=64, clock=bench_clock()
)
ROUNDS = 3


def _workload():
    link = row_normalize(graph_edges("soc-pokec", scale=2e-3, seed=4))
    program = build_pagerank_program(link.shape[0], 0.05, iterations=5)
    return program, {"link": link}


def _run(tracer=None):
    program, inputs = _workload()
    session = DMacSession(ClusterConfig(**CONFIG))
    start = time.perf_counter()
    result = session.run(program, inputs, tracer=tracer)
    return result, time.perf_counter() - start


def test_trace_overhead(benchmark):
    benchmark.pedantic(lambda: _run()[0], rounds=1, iterations=1)
    off_walls, on_walls = [], []
    for __ in range(ROUNDS):
        result_off, wall_off = _run()
        tracer = TraceCollector()
        result_on, wall_on = _run(tracer)
        assert_reconciled(tracer)
        # Tracing observes the simulation; it must never perturb it.
        assert result_on.comm_bytes == result_off.comm_bytes
        assert result_on.simulated_seconds == result_off.simulated_seconds
        off_walls.append(wall_off)
        on_walls.append(wall_on)
    off, on = min(off_walls), min(on_walls)

    calls = 200_000
    start = time.perf_counter()
    for __ in range(calls):
        active_tracer()
    guard_ns = (time.perf_counter() - start) / calls * 1e9

    report(
        "trace_overhead",
        "Structured tracing -- wall-clock cost, off vs on",
        ["workload", "wall (off)", "wall (on)", "delta", "guard/site"],
        [[
            "pagerank x5 iters",
            fmt_secs(off),
            fmt_secs(on),
            f"{(on - off) / off * 100:+.1f}%",
            f"{guard_ns:.0f} ns",
        ]],
        notes=(
            "off = no collector installed: each emit site is a single "
            "module-global read, so disabled tracing is free; on = full "
            "span/event collection + exact ledger/clock reconciliation"
        ),
    )
    # The off-path guard is a global read; ~ns, never microseconds.
    assert guard_ns < 2_000, f"disabled-tracing guard costs {guard_ns:.0f} ns"
    # Collection is bounded: the traced run stays in the same ballpark.
    assert on < off * 5 + 0.5, f"tracing-on overhead exploded: {off=} {on=}"
