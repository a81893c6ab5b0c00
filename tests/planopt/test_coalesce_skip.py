"""Coalesce prices each symmetric flip class once (repro.planopt.coalesce).

A round skips a flip root that an earlier candidate's clean trial already
flipped through symmetric links.  That is exact only under the module's
*dominance lemma* -- a covered root prices at or above its coverer, or its
build is refused -- so the lemma is checked on every round of the registry
sweep, and a paired oracle optimizes random programs with the skip and
without it and requires the same plans.
"""

import collections
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.frontend.staged import segments_of
from repro.planopt import coalesce, optimize_plan
from repro.programs.registry import SPECS, WorkloadParams, build_workload
from tests.core.test_properties import random_programs

#: Small data: the plans' shape, not their sizes, decides the cascades.
SMALL = dict(scale=1e-3, rows=400, features=40, factors=8)

#: Iterations (svd: rank) of the registry sweep.  Pricing every root costs
#: what a round cost before the skip, quadratic in the loop length: 1 to 4
#: in tier-1 (~6 s), 1 to 8 under ``--hypothesis-profile=deep`` (~30 s).
DEEP = settings.default.max_examples >= settings.get_profile("deep").max_examples
ITERATIONS = range(1, 9 if DEEP else 5)

#: app -> the workloads of its sweep ...
SWEEP = {
    spec.name: [
        (spec.name, WorkloadParams(**SMALL, iterations=iterations, rank=iterations))
        for iterations in ITERATIONS
    ]
    for spec in SPECS
}
# ... and the e2e benchmark's plan-bound shapes.
SWEEP["bench"] = [
    ("svd", WorkloadParams(scale=3e-3, rank=5)),
    ("svd", WorkloadParams(scale=3e-3, rank=8)),
    ("gnmf", WorkloadParams(scale=2e-2, factors=64, iterations=3)),
]

#: Counts the skip may change: the trials it saves, and so how many of the
#: trials it does run are refused.
SKIP_COUNTS = ("candidates_priced", "candidates_skipped", "candidates_refused")


def no_skip():
    """Turn the skip off: no trial covers any root."""
    return mock.patch.object(coalesce, "_covers", lambda *args: frozenset())


@pytest.mark.parametrize("app", SWEEP)
def test_every_covered_root_prices_at_or_above_its_coverer(app, monkeypatch):
    """Full pricing, every round, workers {2, 4, 7} x both sparsity models:
    each root an earlier clean trial covers prices at or above that trial,
    or the build refuses it."""
    candidates, price = coalesce._candidates, coalesce._price
    covered = []
    round_ = {}

    def enumerate_round(index):
        found = candidates(index)
        round_.update(order={id(c): k for k, c in enumerate(found)}, prices={}, coverer={})
        return found

    def priced(index, candidate, cost, rows, garbage, produced, __):
        order = round_["order"][id(candidate)]
        covers = set()
        got = round_["prices"][order] = price(
            index, candidate, cost, rows, garbage, produced, covers
        )
        first = round_["coverer"].get(coalesce._root(index, candidate))
        if first is not None:
            covered.append(candidate)
            if got < round_["prices"][first]:
                with pytest.raises(PlanError):
                    coalesce._build(index, candidate, cost)
        for root in covers:
            round_["coverer"].setdefault(root, order)
        return got

    monkeypatch.setattr(coalesce, "_candidates", enumerate_round)
    monkeypatch.setattr(coalesce, "_price", priced)
    programs = [
        program
        for name, params in SWEEP[app]
        for __, program in segments_of(build_workload(name, params).program).programs
    ]
    for program in programs:
        for workers in (2, 4, 7):
            plan = schedule_stages(DMacPlanner(program, workers).plan())
            for mode in ("worst", "average"):
                optimize_plan(plan, num_workers=workers, estimation_mode=mode)
    if app not in ("cf", "powiter"):  # too small to have a flip class
        assert covered


def optimized(plan, workers, mode):
    counters = collections.Counter()
    plan = optimize_plan(plan, num_workers=workers, estimation_mode=mode, counters=counters)
    return plan, counters


@settings(derandomize=True)
@given(random_programs(), st.integers(2, 7), st.sampled_from(("worst", "average")))
def test_the_skip_changes_no_plan_on_random_programs(generated, workers, mode):
    """Each draw optimized twice in one process (a derandomized seed comes
    from the test function: never compare draws across processes)."""
    program, __ = generated
    plan = schedule_stages(DMacPlanner(program, workers).plan())
    skipping, counts = optimized(plan, workers, mode)
    with no_skip():
        reference, full = optimized(plan, workers, mode)
    assert skipping.describe() == reference.describe()
    assert skipping.rewrites == reference.rewrites
    assert skipping.certificates == reference.certificates
    for key in SKIP_COUNTS:
        del counts[key], full[key]
    assert counts == full


def test_svd_prices_each_flip_class_once():
    """The e2e benchmark's svd (rank 5): 62 roots, 23 trials, and every
    other count what pricing all 62 gives."""
    program = build_workload(*SWEEP["bench"][0]).program
    plan = schedule_stages(DMacPlanner(program, 4).plan())
    skipping, counts = optimized(plan, 4, "worst")
    with no_skip():
        __, full = optimized(plan, 4, "worst")
    assert counts["candidates_enumerated"] == full["candidates_priced"] == 62
    assert counts["candidates_priced"] + counts["candidates_skipped"] == 62
    for key in ("candidates_forked", "candidates_accepted", "index_builds", "plan_scans"):
        assert counts[key] == full[key], key
