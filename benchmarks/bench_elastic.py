"""Elasticity benchmark — throughput vs worker-seconds (no paper figure).

The paper's clusters are fixed-size: every experiment holds its worker
count for the whole run.  A membership timeline relaxes that, so this
benchmark prices the trade-off the paper never could: each elasticity
policy turns the plan's per-stage flop profile into a join/leave
timeline, and the sweep reports makespan (throughput) against
worker-seconds -- the quantity a cloud bill actually meters.

Two properties are asserted, not just reported:

* **numerics survive churn** -- every policy-driven run reproduces the
  fixed-peak cluster's outputs to 1e-8;
* **elasticity pays both ways** -- load tracking beats the one-member
  cluster on makespan *and* never exceeds the fixed peak cluster's
  worker-seconds, while every timeline run stays at or below the price
  of holding peak membership for its whole duration
  (``worker_seconds <= slot_seconds``).
"""

from __future__ import annotations

import numpy as np
from harness import fmt_bytes, fmt_secs, report, registry_workload

from repro import ClusterConfig, DMacSession
from repro.config import ClockConfig
from repro.core.cost import CostModel
from repro.elastic import (
    CostCappedPolicy,
    FixedPolicy,
    LoadTrackingPolicy,
    timeline_spec,
)

SEED = 0
PEAK = 6  # most members any policy may scale to

APPS = [
    ("GNMF", "gnmf", {"scale": 2e-3, "iterations": 3}),
    ("PageRank", "pagerank", {"scale": 2e-3, "iterations": 4}),
]


def elastic_clock() -> ClockConfig:
    """A mixed compute/overhead simulated clock.

    The shared ``bench_clock()`` is communication-dominated -- the
    paper's regime, where adding workers mostly adds cross-worker
    traffic.  The membership decision matters in a mixed regime: flops
    expensive enough that scaling the heavy stages out divides their
    makespan, with per-stage latency and shuffle time that bill *every
    live member* for the whole stage, so holding peak membership through
    the light stages is the waste elasticity recovers.
    """
    return ClockConfig(
        network_bytes_per_sec=2e7,
        dense_flops_per_sec=5e6,
        sparse_flops_per_sec=1.5e6,
        disk_bytes_per_sec=2e7,
        latency_per_stage_sec=0.01,
    )


def _run(load, spec, workers):
    """One run; empty ``spec`` is the fixed-membership (static) baseline."""
    config = ClusterConfig(
        num_workers=workers,
        threads_per_worker=1,
        block_size=16,
        clock=elastic_clock(),
        elastic=spec,
        elastic_seed=SEED,
    )
    return DMacSession(config).run(load.program, load.inputs)


def _damped_weights(load, window: int = 2):
    """The plan's per-stage flop profile, damped for policy input.

    Iterative programs alternate heavy multiply stages with light
    bookkeeping stages; tracking the raw profile would join and leave
    every other stage, and each leave loses the departing member's
    cached blocks to lineage recomputation.  A running maximum over
    ``+/- window`` stages is the hysteresis a real autoscaler applies:
    membership follows the load envelope, not its ripple.
    """
    plan = DMacSession(ClusterConfig(num_workers=PEAK)).plan(load.program)
    weights = CostModel(load.program, PEAK).price(plan).flops_by_stage
    return [
        max(weights[max(0, i - window): i + window + 1])
        for i in range(len(weights))
    ]


def test_elastic_policy_sweep(benchmark):
    """Fixed vs load-tracking vs cost-capped membership, per app."""
    loads = {app: registry_workload(app, **params) for __, app, params in APPS}
    benchmark.pedantic(_run, args=(loads["gnmf"], "", 1), rounds=1, iterations=1)
    rows = []
    for label, app, __ in APPS:
        load = loads[app]
        weights = _damped_weights(load)
        budget = 0.5 * PEAK * len(weights)
        policies = [
            (FixedPolicy(), 1),
            (FixedPolicy(), PEAK),
            (LoadTrackingPolicy(max_members=PEAK), 1),
            (CostCappedPolicy(max_members=PEAK, budget_worker_stages=budget), 1),
        ]
        runs = []
        for policy, initial in policies:
            spec = timeline_spec(policy.timeline(weights, initial))
            result = _run(load, spec, initial)
            runs.append((policy, initial, result))
        baseline = runs[0][2]  # fixed @ 1: the throughput reference
        peak_run = runs[1][2]  # fixed @ PEAK: numeric + cost reference
        for policy, initial, result in runs:
            for name, array in peak_run.matrices.items():
                np.testing.assert_allclose(
                    result.matrices[name], array, atol=1e-8,
                    err_msg=f"{label} [{policy.name}]: output {name} diverged",
                )
            summary = result.elastic
            assert summary["worker_seconds"] <= summary["slot_seconds"], (
                f"{label} [{policy.name}]: an elastic run must not cost more "
                "than holding peak membership for its whole duration"
            )
            rows.append(
                [
                    label,
                    f"{policy.name}@{initial}",
                    f"{summary['initial_members']}->{summary['final_members']}"
                    f" (peak {summary['slots']})",
                    str(len(summary["events"])),
                    fmt_secs(result.simulated_seconds),
                    f"{baseline.simulated_seconds / result.simulated_seconds:.2f}x",
                    fmt_secs(summary["worker_seconds"]),
                    fmt_secs(summary["slot_seconds"]),
                    fmt_bytes(summary["rebalance_bytes"]),
                ]
            )
        tracking = runs[2][2]
        assert tracking.simulated_seconds < baseline.simulated_seconds, (
            f"{label}: load tracking must beat the one-member cluster on "
            "makespan"
        )
        assert (
            tracking.elastic["worker_seconds"]
            <= peak_run.elastic["worker_seconds"]
        ), (
            f"{label}: load tracking must not bill more worker-seconds than "
            f"the fixed {PEAK}-member cluster"
        )
    report(
        "bench_elastic_policies",
        "Elasticity policies: throughput vs worker-seconds",
        ["app", "policy", "members", "events", "makespan", "speedup",
         "worker-s", "peak-held-s", "rebalanced"],
        rows,
        seed=SEED,
        notes="Policies derive join/leave timelines from the plan's damped "
        "per-stage flop profile (CostTable.flops_by_stage); 'speedup' is "
        "makespan relative to the fixed one-member baseline, 'worker-s' "
        "sums duration x live members (the cloud bill), 'peak-held-s' "
        "prices the same duration at peak membership.  Every run's outputs "
        f"are asserted equal to the fixed {PEAK}-member cluster's to 1e-8; "
        "load tracking is asserted faster than fixed@1 and no more "
        f"expensive than fixed@{PEAK}.",
    )


def test_elastic_throughput_scaling(benchmark):
    """Makespan as load tracking is allowed more members (GNMF)."""
    load = registry_workload("gnmf", scale=2e-3, iterations=3)
    weights = _damped_weights(load)
    benchmark.pedantic(_run, args=(load, "", 1), rounds=1, iterations=1)
    rows = []
    results = {}
    for max_members in (1, 2, 4, 6):
        spec = timeline_spec(
            LoadTrackingPolicy(max_members=max_members).timeline(weights, 1)
        )
        result = _run(load, spec, 1)
        results[max_members] = result
        summary = result.elastic
        rows.append(
            [
                str(max_members),
                fmt_secs(result.simulated_seconds),
                f"{results[1].simulated_seconds / result.simulated_seconds:.2f}x",
                fmt_secs(summary["worker_seconds"]),
                fmt_bytes(summary["rebalance_bytes"]),
            ]
        )
    assert results[6].simulated_seconds < results[1].simulated_seconds, (
        "granting load tracking more members must shorten the makespan"
    )
    for max_members, result in results.items():
        for name, array in results[1].matrices.items():
            np.testing.assert_allclose(
                result.matrices[name], array, atol=1e-8,
                err_msg=f"max={max_members}: output {name} diverged",
            )
    report(
        "bench_elastic_scaling",
        "Elastic throughput scaling: GNMF under load tracking",
        ["max members", "makespan", "speedup", "worker-s", "rebalanced"],
        rows,
        seed=SEED,
        notes="Load tracking scales membership with each stage's share of "
        "the damped peak stage weight, capped at 'max members'; the pool "
        "starts at one member.  Speedup is relative to the 1-member cap.  "
        "All runs produce identical numerics to 1e-8.",
    )
