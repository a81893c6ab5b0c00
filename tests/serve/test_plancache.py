"""Plan cache: fingerprints, hits/misses/bypasses, LRU eviction."""

import collections
import contextlib
import dataclasses
import sys
from unittest import mock

from repro import ClusterConfig, DMacSession
from repro.core.defuse import DefUse
from repro.planopt.structural import program_fingerprint
from repro.programs.registry import WorkloadParams, build_workload
from repro.runtime.graph import StageGraph
from repro.serve import JobSpec, MatrixService, ServiceConfig, TenantSpec
from repro.serve.plancache import PlanCache, plan_for_cache
from repro.verify.analysis import solve_shapes
from repro.verify.hazards import find_hazards
from repro.verify.memory import predict_peak_memory, solve_liveness
from tests.planopt.test_equivalence import SPILLING, spilled_chains

PARAMS = WorkloadParams(scale=5e-4, iterations=2, rows=300, features=30)


def entry_for(app, fingerprint="fp"):
    session = DMacSession(ClusterConfig(num_workers=4))
    workload = build_workload(app, PARAMS)
    entry = plan_for_cache(session, workload.program)
    return dataclasses.replace(entry, fingerprint=fingerprint)


class TestFingerprint:
    def test_identical_programs_share_a_fingerprint(self):
        a = build_workload("pagerank", PARAMS).program
        b = build_workload("pagerank", PARAMS).program
        assert program_fingerprint(a, workers=4) == program_fingerprint(b, workers=4)

    def test_different_programs_differ(self):
        a = build_workload("pagerank", PARAMS).program
        b = build_workload(
            "pagerank", dataclasses.replace(PARAMS, iterations=3)
        ).program
        assert program_fingerprint(a, workers=4) != program_fingerprint(b, workers=4)

    def test_knobs_are_part_of_the_key(self):
        program = build_workload("pagerank", PARAMS).program
        assert program_fingerprint(program, workers=4) != program_fingerprint(
            program, workers=8
        )

    def test_staged_programs_fingerprint(self):
        a = build_workload("powiter", WorkloadParams(rows=60)).program
        b = build_workload("powiter", WorkloadParams(rows=60)).program
        c = build_workload("powiter", WorkloadParams(rows=80)).program
        assert program_fingerprint(a) == program_fingerprint(b)
        assert program_fingerprint(a) != program_fingerprint(c)


class TestEntry:
    def test_entry_carries_predictions_and_hashes(self):
        entry = entry_for("pagerank")
        assert len(entry.plans) == 1
        assert entry.structural_hashes == (entry.plans[0].structural_hash(),)
        assert entry.predicted_bytes == entry.plans[0].predicted_bytes
        assert entry.predicted_peak_bytes > 0
        assert entry.predicted_flops > 0
        assert entry.plan_wall_seconds > 0

    def test_staged_entry_has_two_plans(self):
        session = DMacSession(ClusterConfig(num_workers=4))
        workload = build_workload("powiter", WorkloadParams(rows=60))
        entry = plan_for_cache(session, workload.program)
        assert len(entry.plans) == 2
        assert len(entry.structural_hashes) == 2


class TestLRU:
    def test_hit_miss_counting(self):
        cache = PlanCache(max_entries=4)
        assert cache.lookup("a") is None
        cache.insert(entry_for("pagerank", "a"))
        assert cache.lookup("a") is not None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["bypasses"] == 0

    def test_disabled_cache_bypasses(self):
        cache = PlanCache(max_entries=0)
        assert not cache.enabled
        assert cache.lookup("a") is None
        cache.insert(entry_for("pagerank", "a"))
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["bypasses"] == 1
        assert stats["misses"] == 0

    def test_lru_eviction_prefers_stale_entries(self):
        cache = PlanCache(max_entries=2)
        entry = entry_for("pagerank")
        cache.insert(dataclasses.replace(entry, fingerprint="a"))
        cache.insert(dataclasses.replace(entry, fingerprint="b"))
        assert cache.lookup("a") is not None  # refresh a
        cache.insert(dataclasses.replace(entry, fingerprint="c"))  # evicts b
        assert cache.stats()["evictions"] == 1
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None


@contextlib.contextmanager
def counting_static_work():
    """Calls to the plan-static derivations, counted from outside (the
    product carries no counter): every ``repro`` module that bound
    ``solve_shapes`` / ``solve_liveness`` / ``predict_peak_memory`` /
    ``find_hazards`` by name is patched, and ``StageGraph.from_plan`` and ``DefUse.of`` -- the one loop
    that builds a who-produces map -- on their classes."""
    counts: collections.Counter = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        for real in (solve_shapes, solve_liveness, predict_peak_memory, find_hazards):
            patched = counted(real.__name__, real)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and vars(module).get(real.__name__) is real:
                    stack.enter_context(mock.patch.object(module, real.__name__, patched))
        for owner, method, name in (
            (StageGraph, "from_plan", "from_plan"),
            (DefUse, "of", "DefUse.of"),
        ):
            real = getattr(owner, method).__func__
            stack.enter_context(
                mock.patch.object(owner, method, classmethod(counted(name, real)))
            )
        yield counts


class TestAPlanIsPreparedOnce:
    """The count gate of ``repro.runtime.graph.prepare``: the numbers below
    were named before the change and repeat exactly run to run."""

    def _serve(self, service, workload):
        record = service.submit(
            JobSpec(tenant="t", program=workload.program, inputs=workload.inputs)
        )
        assert service.drain(max_jobs=1) == [record] and record.state == "done"
        return record

    def test_a_hit_does_no_static_work_and_a_miss_does_it_once_per_plan(self):
        service = MatrixService(ServiceConfig(tenants=(TenantSpec("t"),), seed=0))
        with service.sessions["t"]:
            for app, params, plans in (
                ("linreg", PARAMS, 1),
                ("powiter", WorkloadParams(rows=60), 2),  # prologue + body
            ):
                workload = build_workload(app, params)
                with counting_static_work() as miss:
                    first = self._serve(service, workload)
                with counting_static_work() as hit:
                    second = self._serve(service, workload)
                assert (first.plan_cache, second.plan_cache) == ("miss", "hit")
                assert miss == {
                    "from_plan": plans,
                    "predict_peak_memory": plans,
                    "solve_liveness": plans,  # no shape analysis: no lint here
                    "DefUse.of": plans,  # the graph's; the predictor reads it
                }
                assert hit == {}  # 0 of each
                assert second.predicted_peak_bytes == first.predicted_peak_bytes

    def test_the_full_static_stack_builds_one_graph_and_one_prediction(self):
        """svd rank 5, optimize + lint + verify: ``from_plan`` 1 (5 before
        the prepared record), ``predict_peak_memory`` 1 (2).
        ``solve_shapes`` <= 5 (one per plan state translation validation
        certifies, plus the lint's) and ``solve_liveness`` 1, the
        predictor's (4 while every translation validation also ran a
        liveness sweep nothing read).  Since
        PR 23 a who-produces map is built by ``DefUse.of`` alone: <= 5 per
        job (17 loops before: one per plan state the optimizer certifies plus
        the graph's, which lint, verify and the predictor read), and
        ``find_hazards`` runs once, kept on the prepared record for lint's
        DM301 / DM302 and the verify gate (2 before, 3 before those two
        rules shared one)."""
        workload = build_workload("svd", WorkloadParams(scale=3e-3, rank=5))
        seen = []
        for __ in range(2):
            with DMacSession(
                ClusterConfig(num_workers=4), optimize=True, lint="error", verify="error"
            ) as session, counting_static_work() as counts:
                result = session.run(workload.program, workload.inputs)
            assert result.predicted_peak_memory_bytes is not None
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["from_plan"] == 1
        assert seen[0]["predict_peak_memory"] == 1
        assert seen[0]["solve_shapes"] <= 5
        assert seen[0]["solve_liveness"] == 1
        assert seen[0]["DefUse.of"] <= 5
        assert seen[0]["find_hazards"] == 1

    def test_a_rebuild_builds_no_def_use(self):
        """A spilled pin's lineage cone reads the def-use the prepared
        stage graph carries: a run of a prepared plan that refills twice
        builds none (2 while every refill built its own ``LineageTracker``),
        and does no other static work."""
        program, inputs = spilled_chains()
        session = DMacSession(SPILLING, optimize=True)
        plans = session.plans(program)
        session.run(program, inputs, plan=plans)  # prepares the plan
        with counting_static_work() as counts:
            result = session.run(program, inputs, plan=plans)
        assert result.cache["refilled"] == 2
        assert counts == {}
