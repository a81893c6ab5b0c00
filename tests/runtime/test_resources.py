"""Lifecycle tests: every matrix registered during a run is released
exactly once -- on clean completion and on mid-run failure alike."""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, RecoveryConfig
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import ExecutionError
from repro.lang.program import ProgramBuilder
from repro.rdd.context import ClusterContext
from repro.runtime import resources as resources_module
from repro.runtime.executor import PlanExecutor
from repro.runtime.resources import ResourceManager


class RecordingManager(ResourceManager):
    """ResourceManager that registers itself for post-run inspection."""

    created: list["RecordingManager"] = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        RecordingManager.created.append(self)


def run_recorded(program, inputs=None, workers=3, expect=None, config=None, chaos=None):
    """Execute a program with the recording manager; return the manager
    (a completed run's result on its ``result``)."""
    plan = schedule_stages(DMacPlanner(program, workers).plan())
    context = ClusterContext(
        config
        or ClusterConfig(num_workers=workers, threads_per_worker=1, block_size=8)
    )
    RecordingManager.created.clear()
    with mock.patch("repro.runtime.executor.ResourceManager", RecordingManager):
        executor = PlanExecutor(context, context.config.block_size)
        result = None
        if expect is None:
            result = executor.execute(plan, inputs, chaos=chaos)
        else:
            with pytest.raises(expect):
                executor.execute(plan, inputs, chaos=chaos)
    assert len(RecordingManager.created) == 1
    manager = RecordingManager.created[0]
    manager.result = result
    return manager


def assert_exactly_once(manager: ResourceManager) -> None:
    published = Counter(i for kind, i in manager.events if kind == "publish")
    released = Counter(i for kind, i in manager.events if kind == "release")
    assert all(count == 1 for count in published.values())
    assert released == published, (
        "every published instance must be released exactly once"
    )
    assert manager.live_instances() == []


def assert_books_balance(manager: ResourceManager) -> None:
    """The fault-tolerant generalisation of :func:`assert_exactly_once`:
    with injected block loss, an instance may additionally be lost and
    later restored, but the books must still balance per instance."""
    assert manager.events_dropped == 0, "cap too small to audit this run"
    published = Counter(i for kind, i in manager.events if kind == "publish")
    released = Counter(i for kind, i in manager.events if kind == "release")
    losts = Counter(i for kind, i in manager.events if kind == "lost")
    restores = Counter(i for kind, i in manager.events if kind == "restore")
    for instance, count in published.items():
        assert count == 1, f"{instance} published {count} times"
        assert (
            released[instance] + losts[instance] - restores[instance] == 1
        ), f"books unbalanced for {instance}"
    for counter in (released, losts, restores):
        assert set(counter) <= set(published)
    assert manager.live_instances() == []


# -- hypothesis-driven program shapes ---------------------------------------

op_choices = st.lists(
    st.sampled_from(["matmul", "gram", "add", "scale", "transpose-mul"]),
    min_size=1,
    max_size=5,
)


@given(ops=op_choices, dim=st.sampled_from([6, 10, 16]))
@settings(max_examples=15, deadline=None)
def test_every_instance_released_exactly_once(ops, dim):
    pb = ProgramBuilder()
    current = pb.load("A", (dim, dim))
    for index, kind in enumerate(ops):
        if kind == "matmul":
            current = pb.assign(f"M{index}", current @ current)
        elif kind == "gram":
            current = pb.assign(f"M{index}", current.T @ current)
        elif kind == "add":
            current = pb.assign(f"M{index}", current + current)
        elif kind == "scale":
            current = pb.assign(f"M{index}", current * 2.0)
        else:
            current = pb.assign(f"M{index}", current @ current.T)
    pb.output(current)
    inputs = {"A": np.random.default_rng(7).random((dim, dim))}
    manager = run_recorded(pb.build(), inputs)
    assert_exactly_once(manager)
    # Something was actually tracked, or the test proves nothing.
    assert any(kind == "publish" for kind, __ in manager.events)


def test_released_exactly_once_on_midrun_failure(rng):
    """A scalar division by zero aborts the run after matrices have been
    materialised; cleanup must still release each exactly once."""
    pb = ProgramBuilder()
    a = pb.load("A", (12, 12))
    b = pb.assign("B", a @ a)
    s = pb.scalar("s", b.sum())
    zero = pb.scalar("z", s - s)
    broken = pb.scalar("w", s / zero)  # 0 denominator at run time
    pb.output(pb.assign("C", b * broken))
    manager = run_recorded(
        pb.build(), {"A": rng.random((12, 12))}, expect=ExecutionError
    )
    assert_exactly_once(manager)
    published = [i for kind, i in manager.events if kind == "publish"]
    assert published, "matrices must have been live when the run aborted"


def test_outputs_survive_until_materialised(rng):
    """The output pin keeps a result alive past its last plan consumer."""
    pb = ProgramBuilder()
    a = pb.load("A", (8, 8))
    b = pb.assign("B", a @ a)
    pb.output(b)
    pb.output(pb.assign("C", b + b))  # B's last *step* consumer
    manager = run_recorded(pb.build(), {"A": rng.random((8, 8))})
    assert_exactly_once(manager)


class TestManagerUnit:
    def test_double_publish_rejected(self, rng):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        pb.output(pb.assign("B", a @ a))
        plan = schedule_stages(DMacPlanner(pb.build(), 2).plan())
        manager = ResourceManager(plan)
        instance = plan.steps[0].output_instance()
        manager.publish(instance, object())
        with pytest.raises(ExecutionError, match="produced twice"):
            manager.publish(instance, object())

    def test_get_unmaterialised_fails(self):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        pb.output(pb.assign("B", a @ a))
        plan = schedule_stages(DMacPlanner(pb.build(), 2).plan())
        manager = ResourceManager(plan)
        with pytest.raises(ExecutionError, match="not materialised"):
            manager.get(plan.steps[0].output_instance())

    def test_close_is_idempotent(self):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        pb.output(pb.assign("B", a @ a))
        plan = schedule_stages(DMacPlanner(pb.build(), 2).plan())
        manager = ResourceManager(plan)
        instance = plan.steps[0].output_instance()
        manager.publish(instance, object())
        manager.close()
        manager.close()
        releases = [i for kind, i in manager.events if kind == "release"]
        assert releases.count(instance) == 1


class TestInvalidateRestore:
    def make_manager(self):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        b = pb.assign("B", a @ a)
        pb.output(pb.assign("C", b + b))
        plan = schedule_stages(DMacPlanner(pb.build(), 2).plan())
        return ResourceManager(plan), plan.steps[0].output_instance()

    def test_invalidate_then_restore_balances_books(self):
        manager, instance = self.make_manager()
        manager.publish(instance, object())
        manager.invalidate(instance)
        assert manager.is_lost(instance)
        with pytest.raises(ExecutionError, match="not materialised"):
            manager.get(instance)
        replacement = object()
        manager.restore(instance, replacement)
        assert not manager.is_lost(instance)
        assert manager.get(instance) is replacement
        manager.close()
        assert_books_balance(manager)

    def test_lost_and_never_restored_still_balances(self):
        manager, instance = self.make_manager()
        manager.publish(instance, object())
        manager.invalidate(instance)
        manager.close()
        kinds = [kind for kind, __ in manager.events]
        assert kinds == ["publish", "lost"]
        assert_books_balance(manager)

    def test_invalidate_requires_materialised(self):
        manager, instance = self.make_manager()
        with pytest.raises(ExecutionError, match="cannot invalidate"):
            manager.invalidate(instance)

    def test_restore_requires_prior_loss(self):
        manager, instance = self.make_manager()
        manager.publish(instance, object())
        with pytest.raises(ExecutionError, match="never invalidated"):
            manager.restore(instance, object())

    def test_decref_on_lost_instance_is_inert(self):
        """A consumer finishing while the instance is lost must not
        double-release it once recovery restores the matrix."""
        manager, instance = self.make_manager()
        manager.publish(instance, object())
        manager.invalidate(instance)
        manager.release_output(instance)  # refcount poke while lost: no-op
        manager.restore(instance, object())
        manager.close()
        assert_books_balance(manager)


class TestOneRebuildPath:
    def test_a_refill_and_a_recovery_in_one_run(self):
        """A tight cache budget spills pinned instances while an injected
        ``lostblock`` destroys the pinned ``link``: both rebuilds run in one
        run, under the manager's one lock, and the books and the outputs
        hold."""
        from repro import DMacSession
        from repro.faults import ChaosEngine
        from repro.programs import build_pagerank_program

        program = build_pagerank_program(200, 0.02, iterations=3)
        link = np.random.default_rng(7).random((200, 200))
        link[link > 0.02] = 0.0
        # Serial stages fix the publish order, so the budget (one pin's
        # bytes) spills the same pins every run.
        config = ClusterConfig(
            num_workers=4, max_concurrent_stages=1, cache_limit_bytes=3800
        )
        clean = DMacSession(config, optimize=True).run(program, {"link": link})
        RecordingManager.created.clear()
        with mock.patch("repro.runtime.executor.ResourceManager", RecordingManager):
            faulted = DMacSession(config, optimize=True).run(
                program,
                {"link": link},
                chaos=ChaosEngine(11, "lostblock:instance=link"),
            )
        (manager,) = RecordingManager.created
        assert_books_balance(manager)
        kinds = Counter(kind for kind, __ in manager.events)
        assert kinds["refill"] >= 1 and kinds["restore"] == kinds["lost"] == 1
        assert faulted.cache["refilled"] == kinds["refill"]
        assert faulted.recovery["blocks_recovered"] == 1
        assert faulted.matrices.keys() == clean.matrices.keys()
        for name, array in clean.matrices.items():
            assert faulted.matrices[name].tobytes() == array.tobytes()


class TestEventLogCap:
    def test_log_is_bounded_and_counts_drops(self, rng, monkeypatch):
        monkeypatch.setattr(resources_module, "MAX_EVENTS", 4)
        pb = ProgramBuilder()
        current = pb.load("A", (8, 8))
        for index in range(6):
            current = pb.assign(f"M{index}", current + current)
        pb.output(current)
        manager = run_recorded(pb.build(), {"A": rng.random((8, 8))})
        assert len(manager.events) == 4
        assert manager.events_recorded > 4
        assert manager.events_dropped == manager.events_recorded - 4


class TestFaultHammer:
    """End-to-end: injected crashes, flaky transfers, and block loss in one
    run -- with retries and lineage recovery the lifecycle books must still
    balance, instance by instance."""

    def run_chaos(self, seed, faults, iterations=4):
        from repro.datasets import sparse_random
        from repro.faults import ChaosEngine
        from repro.programs import build_pagerank_program

        nodes = 64
        program = build_pagerank_program(nodes, 0.05, iterations=iterations)
        link = sparse_random(nodes, nodes, 0.05, seed=3, ensure_coverage=True)
        link = link / np.maximum(link.sum(axis=1, keepdims=True), 1e-12)
        config = ClusterConfig(
            num_workers=3,
            threads_per_worker=1,
            block_size=16,
            recovery=RecoveryConfig(max_stage_attempts=4),
        )
        manager = run_recorded(
            program, {"link": link}, config=config, chaos=ChaosEngine(seed, faults)
        )
        injected = [e for e in manager.result.recovery["events"] if e["event"] == "inject"]
        return manager, injected

    def test_hammered_run_releases_every_instance_exactly_once(self):
        manager, injected = self.run_chaos(
            seed=11,
            faults="crash:times=2;flaky:p=0.9,times=1;lostblock:instance=rank,iteration=3",
        )
        kinds = Counter(event["fault"] for event in injected)
        assert kinds.get("crash", 0) >= 1, "no crash fired -- hammer too soft"
        assert kinds.get("lostblock", 0) == 1
        assert_books_balance(manager)
        losts = [i for kind, i in manager.events if kind == "lost"]
        restores = [i for kind, i in manager.events if kind == "restore"]
        assert losts == restores, "the lost block must have been recovered"

    def test_hammered_run_is_deterministic(self):
        faults = "crash:times=2;flaky:p=0.9,times=1;lostblock:instance=rank,iteration=3"
        first, injected_a = self.run_chaos(seed=11, faults=faults)
        second, injected_b = self.run_chaos(seed=11, faults=faults)
        # Concurrent stages may interleave the raw logs differently (the
        # JSON report sorts canonically), but the *decisions* -- which
        # faults fired, where -- and the lifecycle transitions are fixed.
        def canon(events):
            return sorted(json.dumps(e, sort_keys=True) for e in events)

        assert canon(injected_a) == canon(injected_b)
        assert Counter(
            (kind, str(instance)) for kind, instance in first.events
        ) == Counter((kind, str(instance)) for kind, instance in second.events)
