"""Plan cache: fingerprints, hits/misses/bypasses, LRU eviction."""

import dataclasses

from repro import ClusterConfig, DMacSession
from repro.planopt.structural import program_fingerprint
from repro.programs.registry import WorkloadParams, build_workload
from repro.serve.plancache import PlanCache, plan_for_cache

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
