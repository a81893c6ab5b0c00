"""Structural identity: step keys, whole-plan hashes, program fingerprints."""

import dataclasses

from repro import ClusterConfig, DMacSession
from repro.planopt import cse
from repro.planopt.structural import (
    plan_structural_hash,
    program_fingerprint,
    step_structural_key,
)
from repro.programs.registry import WorkloadParams, build_workload

PARAMS = WorkloadParams(scale=5e-4, iterations=2, rows=300, features=30)


def plan_of(app, params=PARAMS, **session_kwargs):
    session = DMacSession(ClusterConfig(num_workers=4), **session_kwargs)
    return session.plan(build_workload(app, params).program)


class TestPlanHash:
    def test_format_is_16_hex_chars(self):
        digest = plan_structural_hash(plan_of("pagerank"))
        assert len(digest) == 16
        int(digest, 16)  # raises if not hex

    def test_identical_programs_hash_equal(self):
        assert plan_structural_hash(plan_of("pagerank")) == plan_structural_hash(
            plan_of("pagerank")
        )

    def test_different_programs_hash_differently(self):
        hashes = {
            plan_structural_hash(plan_of(app))
            for app in ("pagerank", "linreg", "jacobi")
        }
        assert len(hashes) == 3

    def test_iteration_count_changes_the_hash(self):
        more = dataclasses.replace(PARAMS, iterations=3)
        assert plan_structural_hash(plan_of("pagerank")) != plan_structural_hash(
            plan_of("pagerank", more)
        )

    def test_plan_method_delegates_here(self):
        plan = plan_of("linreg")
        assert plan.structural_hash() == plan_structural_hash(plan)

    def test_optimized_plan_hashes_differently_when_steps_change(self):
        # The optimizer rewrites the step list (CSE, caching pins); if it
        # changed anything structural the hash must move with it.
        def shape(plan):
            return [str(s) for s in plan.steps], sorted(map(str, plan.cache_pins))

        plain = plan_of("gnmf")
        optimized = plan_of("gnmf", optimize=True)
        if shape(plain) == shape(optimized):
            assert plan_structural_hash(plain) == plan_structural_hash(optimized)
        else:
            assert plan_structural_hash(plain) != plan_structural_hash(optimized)


class TestStepKey:
    def test_cse_alias_is_this_function(self):
        assert cse.step_structural_key is step_structural_key

    def test_source_steps_are_never_merged(self):
        plan = plan_of("pagerank")
        sources = [s for s in plan.steps if type(s).__name__ == "SourceStep"]
        assert sources
        assert all(step_structural_key(s) is None for s in sources)

    def test_equal_steps_share_a_key(self):
        a, b = plan_of("pagerank"), plan_of("pagerank")
        keys_a = [step_structural_key(s) for s in a.steps]
        keys_b = [step_structural_key(s) for s in b.steps]
        assert keys_a == keys_b


class TestProgramFingerprint:
    def test_fingerprint_is_knob_sensitive(self):
        program = build_workload("pagerank", PARAMS).program
        base = program_fingerprint(program, num_workers=4)
        assert base == program_fingerprint(program, num_workers=4)
        assert base != program_fingerprint(program, num_workers=8)
        assert base != program_fingerprint(
            program, num_workers=4, optimize=True
        )

    def test_fingerprint_is_cheaper_than_planning(self):
        # The whole point of the pre-planning key: a cache hit must not
        # pay for planning. Guard the orders-of-magnitude gap coarsely.
        import time

        program = build_workload("pagerank", PARAMS).program
        session = DMacSession(ClusterConfig(num_workers=4))
        session.plan(program)  # warm both paths before timing
        program_fingerprint(program, num_workers=4)
        reps = 10
        started = time.perf_counter()
        for _ in range(reps):
            session.plan(program)
        plan_cost = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(reps):
            program_fingerprint(program, num_workers=4)
        fingerprint_cost = time.perf_counter() - started
        assert fingerprint_cost * 2 < plan_cost
