"""Static verification must be cheap enough to leave on.

``repro verify`` runs the full suite -- hazard detection, memory
prediction, plus translation validation inside the
optimizer -- before a single block moves.  This benchmark times that
static cost for every paper application and holds it to a budget: the
whole 7-app sweep in under a second of analysis time, with per-app
verification far below the cost of actually executing the plan.
"""

from __future__ import annotations

import argparse
import time

from harness import fmt_secs, report
from repro import ClusterConfig, DMacSession
from repro.cli import APPS, _workload
from repro.planopt import optimize_plan
from repro.verify import verify_plan

WORKLOAD_ARGS = dict(
    scale=3e-3, seed=7, factors=10, iterations=2, graph="LiveJournal",
    rows=600, features=40, sparsity=0.05, rank=6,
)
WORKERS = 4


def _plans():
    """app -> (unoptimized plan, wall seconds spent planning)."""
    plans = {}
    for app in APPS:
        program, __, ___ = _workload(
            argparse.Namespace(app=app, **WORKLOAD_ARGS)
        )
        session = DMacSession(ClusterConfig(num_workers=WORKERS))
        start = time.perf_counter()
        plan = session.plan(program)
        plans[app] = (plan, time.perf_counter() - start)
    return plans


def test_verify_overhead(benchmark):
    plans = _plans()
    rows = []
    total_verify = 0.0
    for app, (plan, plan_wall) in plans.items():
        # Translation validation: the optimizer certifies its own rewrites.
        start = time.perf_counter()
        optimized = optimize_plan(plan, num_workers=WORKERS)
        optimize_wall = time.perf_counter() - start

        start = time.perf_counter()
        result = verify_plan(optimized, num_workers=WORKERS, target=app)
        verify_wall = time.perf_counter() - start
        total_verify += verify_wall

        assert not result.has_errors, f"{app}: planner output must verify"
        rows.append([
            app,
            len(optimized.steps),
            len(result.certificates),
            fmt_secs(plan_wall),
            fmt_secs(optimize_wall),
            fmt_secs(verify_wall),
        ])

    benchmark.pedantic(
        lambda: [
            verify_plan(plan, num_workers=WORKERS)
            for plan, __ in plans.values()
        ],
        rounds=3,
        iterations=1,
    )

    report(
        "verify_overhead",
        "Static verification cost per application",
        ["app", "steps", "certs", "plan", "optimize+validate", "verify"],
        rows,
        notes=(
            "verify = hazard detection + memory prediction over the "
            "optimized plan; optimize+validate includes "
            "per-pass translation validation.  Budget: the whole sweep "
            "under one second."
        ),
    )
    assert total_verify < 1.0, (
        f"verifying all {len(plans)} apps took {total_verify:.3f} s; "
        "static analysis must stay sub-second"
    )
