"""Cellwise fusion's wall-clock win, plus PageRank's transpose count.

The first benchmark whose headline number is *wall-clock*, not simulated:

* **Fused cellwise ladder** — GNMF-style multiply/divide rungs, iterated so
  the fusion pass collapses twelve cellwise steps into one composed kernel
  per block.  Gate: >= 1.5x over the unfused engine, byte-identical.
* **PageRank's transposes** — the sparse block kernel's own count: its
  dense x CSC products must transpose no CSC block (docs/kernels.md,
  "Sparse block kernels").  Gate: 0.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from harness import (
    assert_plan_clean,
    bench_clock,
    fmt_secs,
    registry_workload,
    report,
)
from repro import ClusterConfig, DMacSession
from repro.blocks.sparse import CSCBlock
from repro.lang.program import ProgramBuilder

SEED = 13
CONFIG = dict(num_workers=4, threads_per_worker=2, clock=bench_clock())


def _best_run(session, program, inputs, plan, rounds=5):
    """Best-of-N wall-clock for executing a pre-built plan."""
    session.run(program, inputs, plan=plan)  # warm caches and pools
    best, result = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        result = session.run(program, inputs, plan=plan)
        best = min(best, time.perf_counter() - started)
    return best, result


def run_fused_ladder():
    """GNMF's cellwise ladder, iterated: ``X = X * A / B`` six times."""
    from repro.core.plan import FusedCellwiseStep

    size, rungs = 1024, 6
    pb = ProgramBuilder()
    x = pb.load("X", (size, size))
    a = pb.load("A", (size, size))
    b = pb.load("B", (size, size))
    out = x
    for _ in range(rungs):
        out = pb.assign("X", out * a / b)
    pb.output(out)
    program = pb.build()
    rng = np.random.default_rng(SEED)
    inputs = {
        "X": rng.random((size, size)),
        "A": rng.random((size, size)) + 0.5,
        "B": rng.random((size, size)) + 0.5,
    }
    measured = {}
    for optimized in (False, True):
        config = ClusterConfig(block_size=64, **CONFIG)
        session = DMacSession(config, optimize=optimized)
        plan = session.plan(program)
        assert_plan_clean(plan, config)
        if optimized:
            fused = [s for s in plan.steps if isinstance(s, FusedCellwiseStep)]
            assert fused, "fusion pass left the ladder unfused"
            assert len(fused[0].chain) == 2 * rungs
            assert plan.certificates, "optimized plan must be certified"
        seconds, result = _best_run(session, program, inputs, plan)
        measured[optimized] = (seconds, result)
    (unfused_secs, unfused), (fused_secs, fused) = measured[False], measured[True]
    assert _bytes(unfused) == _bytes(fused), "fusion changed the output bytes"
    return {
        "label": f"fused ladder ({rungs} rungs, {size}^2)",
        "base_secs": unfused_secs,
        "new_secs": fused_secs,
        "identical": True,
        "metric": f"comm {unfused.comm_bytes} -> {fused.comm_bytes} B (simulated)",
    }


def count_pagerank_transposes():
    """``CSCBlock.transpose`` calls made while planning and running PageRank."""
    pagerank = registry_workload("pagerank", scale=1e-3, iterations=3)
    with _counted_csc_transposes() as transposes:
        session = DMacSession(ClusterConfig(block_size=64, **CONFIG))
        plan = session.plan(pagerank.program)
        session.run(pagerank.program, pagerank.inputs, plan=plan)
    return len(transposes)


@contextlib.contextmanager
def _counted_csc_transposes():
    """Every ``CSCBlock.transpose`` call made inside the block."""
    calls, transpose = [], CSCBlock.transpose

    def counted(block):
        calls.append(block.shape)
        return transpose(block)

    CSCBlock.transpose = counted
    try:
        yield calls
    finally:
        CSCBlock.transpose = transpose


def _bytes(result):
    return {key: value.tobytes() for key, value in sorted(result.matrices.items())}


def test_fused_kernels_wall_clock(benchmark):
    ladder = benchmark.pedantic(run_fused_ladder, rounds=1, iterations=1)
    transposes = count_pagerank_transposes()
    ladder["speedup"] = ladder["base_secs"] / ladder["new_secs"]
    report(
        "fused_kernels",
        "cellwise fusion -- wall-clock speedup",
        ["workload", "unfused", "fused", "speedup", "byte-identical", "notes"],
        [
            [
                ladder["label"],
                fmt_secs(ladder["base_secs"]),
                fmt_secs(ladder["new_secs"]),
                f"{ladder['speedup']:.2f}x",
                "yes" if ladder["identical"] else "NO",
                ladder["metric"],
            ]
        ],
        notes=f"PageRank (scale 1e-3, 3 iterations, block 64): {transposes} "
        "CSC transposes inside products.",
        seed=SEED,
    )
    # Hard gates: the headline fusion win, and no CSC transpose inside
    # PageRank's products.  End-to-end host wall lives in benchmarks/e2e.
    assert ladder["speedup"] >= 1.5, f"fused ladder only {ladder['speedup']:.2f}x"
    assert transposes == 0, f"{transposes} CSC transposes inside products"
