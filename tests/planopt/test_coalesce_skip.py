"""Coalesce prices each symmetric flip class once and certifies futile
trials instead of pricing them (repro.planopt.coalesce).

A round skips a flip root that an earlier candidate's clean trial already
flipped through symmetric links.  That is exact only under the module's
*dominance lemma* -- a covered root prices at or above its coverer, or its
build is refused.  It also skips a candidate whose futility certificate
proves its trial cannot price below the round's base: exact only under the
*futility lemma* -- a certified candidate prices at or above the base, or
is refused.  Both lemmas are checked on every round of the registry sweep,
and a paired oracle optimizes random programs with both skips and without
them and requires the same plans.
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

#: Counts the skips may change: the trials they save, and so how many of
#: the trials still run are refused.
SKIP_COUNTS = (
    "candidates_priced",
    "candidates_skipped",
    "candidates_certified",
    "candidates_refused",
)


def no_skip():
    """Turn the dominance skip off: no trial covers any root."""
    return mock.patch.object(coalesce, "_covers", lambda *args: frozenset())


def no_certificate():
    """Turn the futility certificate off: every candidate is priced."""
    return mock.patch.object(coalesce._Futility, "futile", lambda *args: False)


def sweep_plans(app):
    """Every plan of one sweep entry: its programs (segments) x workers
    {2, 4, 7}, to be optimized under both sparsity models."""
    for name, params in SWEEP[app]:
        for __, program in segments_of(build_workload(name, params).program).programs:
            for workers in (2, 4, 7):
                yield schedule_stages(DMacPlanner(program, workers).plan()), workers


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
    monkeypatch.setattr(coalesce._Futility, "futile", lambda *args: False)
    for plan, workers in sweep_plans(app):
        for mode in ("worst", "average"):
            optimize_plan(plan, num_workers=workers, estimation_mode=mode)
    if app not in ("cf", "powiter"):  # too small to have a flip class
        assert covered


@pytest.mark.parametrize("app", SWEEP)
def test_every_certified_candidate_prices_at_or_above_the_base(app, monkeypatch):
    """The futility lemma, every round, workers {2, 4, 7} x both sparsity
    models: each candidate the certificate skips, priced in full in its
    round, is refused or prices at or above the round's base."""
    futile = coalesce._Futility.futile
    certified = collections.Counter()

    def checked(self, candidate):
        if not futile(self, candidate):
            return False
        base = (sum(self.rows.values()), len(self.rows))
        try:
            price = coalesce._price(self.index, candidate, self.cost, self.rows, self.garbage)
        except PlanError:
            certified["refused"] += 1
        else:
            assert price >= base, candidate[3]
        certified[candidate[0]] += 1
        return True

    monkeypatch.setattr(coalesce._Futility, "futile", checked)
    for plan, workers in sweep_plans(app):
        for mode in ("worst", "average"):
            optimize_plan(plan, num_workers=workers, estimation_mode=mode)
    if app not in ("pagerank", "jacobi", "cf"):  # no futile trial they can prove
        assert certified["merge"] or certified["flip"], certified


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
    with no_skip(), no_certificate():
        reference, full = optimized(plan, workers, mode)
    assert skipping.describe() == reference.describe()
    assert skipping.rewrites == reference.rewrites
    assert skipping.certificates == reference.certificates
    for key in SKIP_COUNTS:
        del counts[key], full[key]
    assert counts == full


def test_svd_prices_each_flip_class_once():
    """The e2e benchmark's svd (rank 5): 62 roots, 8 trials -- the second
    round is certified whole -- and every other count what pricing all 62
    gives."""
    program = build_workload(*SWEEP["bench"][0]).program
    plan = schedule_stages(DMacPlanner(program, 4).plan())
    skipping, counts = optimized(plan, 4, "worst")
    with no_skip(), no_certificate():
        __, full = optimized(plan, 4, "worst")
    assert counts["candidates_enumerated"] == full["candidates_priced"] == 62
    assert counts["candidates_priced"] == 8
    assert sum(counts[key] for key in SKIP_COUNTS[:3]) == 62
    for key in ("candidates_forked", "candidates_accepted", "index_builds", "plan_scans"):
        assert counts[key] == full[key], key


@pytest.mark.parametrize("name", sorted(spec.name for spec in SPECS))
def test_a_trial_is_refused_exactly_when_its_fork_is(name, monkeypatch):
    """Registry defaults x workers {2, 4, 7} x both sparsity models, every
    candidate priced: the in-trial price refuses exactly the candidates
    whose fork the toposort refuses, so a cyclic trial never reaches the
    build."""
    price, seen = coalesce._price, collections.Counter()

    def both(index, candidate, cost, *rest):
        with index.trial():
            try:
                coalesce._apply_candidate(coalesce._FlipSession(index), candidate)
                index.fork()
            except PlanError:
                forked = False
            else:
                forked = True
        try:
            got = price(index, candidate, cost, *rest)
        except PlanError:
            assert not forked, candidate[3]
            seen["refused"] += 1
            raise
        assert forked, candidate[3]
        seen["priced"] += 1
        return got

    monkeypatch.setattr(coalesce, "_price", both)
    program = build_workload(name, WorkloadParams()).program
    for __, segment in segments_of(program).programs:
        for workers in (2, 4, 7):
            plan = schedule_stages(DMacPlanner(segment, workers).plan())
            for mode in ("worst", "average"):
                optimize_plan(plan, num_workers=workers, estimation_mode=mode)
    assert seen["priced"] + seen["refused"]
