"""The ast frontend must compile for free relative to planning.

Every registered program is now produced by ``@matrix_program`` functions
compiled at workload-build time, so frontend lowering sits on the critical
path of every ``repro`` invocation.  This benchmark times compilation
(source capture + ast lowering + IR build) for each registered app —
datasets excluded — against the planner's cost on the same program, and
budgets the whole sweep: the frontend may not dominate planning.
"""

from __future__ import annotations

import time

from harness import fmt_secs, report
from repro import ClusterConfig, DMacSession
from repro.frontend.staged import segments_of
from repro.programs import (
    build_cf_program,
    build_gnmf_program,
    build_jacobi_program,
    build_linreg_program,
    build_logreg_program,
    build_pagerank_program,
    build_power_iteration_program,
    build_ridge_program,
    build_svd_program,
)
from repro.programs.registry import ALL_APPS

#: app -> frontend compilation thunk at the small-workload shapes.
COMPILERS = {
    "gnmf": lambda: build_gnmf_program((480, 530), 0.05, factors=10,
                                       iterations=2),
    "pagerank": lambda: build_pagerank_program(1200, 0.01, iterations=2),
    "linreg": lambda: build_linreg_program((600, 40), 0.05, iterations=2),
    "logreg": lambda: build_logreg_program((600, 40), 0.05, iterations=2),
    "jacobi": lambda: build_jacobi_program(600, 0.05, iterations=2),
    "cf": lambda: build_cf_program((530, 480), 0.05),
    "svd": lambda: build_svd_program((480, 530), 0.05, rank=6),
    "powiter": lambda: build_power_iteration_program(600, eps=1e-3),
    "ridge": lambda: build_ridge_program((600, 40), 0.05, iterations=2),
}
WORKERS = 4
ROUNDS = 10


def _program_of(built):
    return built[0] if isinstance(built, tuple) else built


def test_compile_overhead(benchmark):
    assert set(COMPILERS) == set(ALL_APPS), "registry drifted from benchmark"
    rows = []
    total_compile = 0.0
    total_plan = 0.0
    for app in ALL_APPS:
        compile_thunk = COMPILERS[app]
        start = time.perf_counter()
        for _ in range(ROUNDS):
            built = compile_thunk()
        compile_wall = (time.perf_counter() - start) / ROUNDS
        total_compile += compile_wall

        program = _program_of(built)
        view = segments_of(program)
        session = DMacSession(ClusterConfig(num_workers=WORKERS))
        start = time.perf_counter()
        session.plans(program)
        plan_wall = time.perf_counter() - start
        total_plan += plan_wall

        rows.append([
            app,
            sum(len(segment.ops) for __, segment in view.programs),
            "flat" if view.loop is None else "staged",
            fmt_secs(compile_wall),
            fmt_secs(plan_wall),
            f"{compile_wall / max(plan_wall, 1e-9):.2f}x",
        ])

    benchmark.pedantic(
        lambda: [COMPILERS[app]() for app in ALL_APPS],
        rounds=3,
        iterations=1,
    )

    report(
        "compile_overhead",
        "Frontend compilation cost per registered program",
        ["app", "ops", "kind", "compile (avg)", "plan", "compile/plan"],
        rows,
        notes=(
            f"compile = ast lowering to MatrixProgram, averaged over "
            f"{ROUNDS} rounds at the small-workload shapes (datasets "
            "excluded); plan = DMac planning of every segment.  Budget: "
            "compiling the full registry cheaper than planning it."
        ),
    )
    assert total_compile < max(total_plan, 1.0), (
        f"compiling all {len(COMPILERS)} programs took {total_compile:.3f} s "
        f"vs {total_plan:.3f} s planning; the frontend must stay off the "
        "profile"
    )
