"""One host-sized lane pool per cluster context: lifecycle, counts, bounds.

What these tests pin (``repro.localexec.lanes``):

* no thread outlives its owner -- closed, dropped, failed, interrupted,
  under chaos, or after a service's worth of jobs;
* a job on a warm session starts no thread and builds no executor (counts,
  not clocks);
* :meth:`LanePool.map` keeps task order, runs each task once, never has
  more than ``width`` in flight, raises the lowest failing index, and one
  shared pool cannot deadlock because block tasks are leaves;
* a block task sees the submitting stage's context on every lane;
* long-lived tenant sessions of one shared ``MatrixService`` behave like
  the solo sessions of ``tests/test_concurrent_sessions.py``.
"""

import contextlib
import dataclasses
import gc
import itertools
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, DMacSession, ProgramBuilder, RecoveryConfig
from repro.errors import ClusterError, StageExecutionError
from repro.faults import ChaosEngine
from repro.localexec.engine import LocalEngine
from repro.localexec.lanes import LanePool
from repro.programs.registry import WorkloadParams, build_workload
from repro.rdd.ledger import CommunicationLedger
from repro.runtime.metering import StageMeter, active_meter, metered
from repro.runtime.resources import ResourceManager
from repro.runtime.scheduler import StageScheduler
from repro.serve import JobSpec, MatrixService, ServiceConfig, TenantSpec
from repro.trace.emit import current_stage, stage_scope
from tests.runtime.test_scheduler import synthetic_graph
from tests.test_concurrent_sessions import APPS, PARAMS

#: The benchmark's cluster: 4 workers x 2 threads, concurrent stages.
CLUSTER = ClusterConfig(num_workers=4, threads_per_worker=2)
#: One entry of the benchmark's ``serve_mix`` pool.
SERVE_SIZED = ("linreg", WorkloadParams(rows=2000, features=80, iterations=2))
WIDTHS = (1, 2, 8)


def fan_out_program(products: int = 4):
    """Independent multi-block products: several ready stage nodes, several
    block tasks per engine call -- both kinds of fan-out."""
    pb = ProgramBuilder()
    a = pb.random("A", (96, 96))
    for index in range(products):
        b = pb.random(f"B{index}", (96, 96))
        pb.output(pb.assign(f"C{index}", a @ b))
    return pb.build()


def small_blocks(**overrides) -> ClusterConfig:
    return ClusterConfig(num_workers=4, threads_per_worker=2, block_size=16, **overrides)


def lane_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-lane")]


def started(pool: LanePool) -> int:
    """Threads this pool has started so far."""
    return len(pool._executor._threads)


def live_threads() -> set[threading.Thread]:
    return set(threading.enumerate())


def assert_threads_return_to(baseline: set[threading.Thread]) -> None:
    """``threading.active_count()`` is back where it started: no thread that
    was not alive at ``baseline`` is alive now (polled for at most 2 s; a
    set, so an unrelated thread that *exits* meanwhile cannot hide a leak)."""
    deadline = time.monotonic() + 2.0
    while live_threads() - baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not live_threads() - baseline


def pooled(width: int):
    """Sessions built inside this block get a pool of exactly ``width``
    threads (the class constructed directly; there is no setting)."""
    return mock.patch("repro.rdd.context.LanePool", lambda: LanePool(width))


@contextlib.contextmanager
def failing_products(error: BaseException, after: int = 3):
    """Make the ``after``-th block product of any engine raise ``error``."""
    real = LocalEngine._pair_product
    calls = itertools.count()

    def product(self, left, right):
        if next(calls) == after:
            raise error
        return real(self, left, right)

    with mock.patch.object(LocalEngine, "_pair_product", product):
        yield


# -- (i) no thread outlives its owner ----------------------------------------


class TestNoThreadOutlivesItsOwner:
    def test_with_block(self):
        baseline = live_threads()
        with DMacSession(small_blocks()) as session:
            session.run(fan_out_program())
            assert lane_threads(), "the run must have fanned out"
        assert_threads_return_to(baseline)

    def test_close_is_idempotent_and_refuses_new_work(self):
        baseline = live_threads()
        session = DMacSession(small_blocks())
        result = session.run(fan_out_program())
        assert lane_threads()
        session.close()
        session.close()
        assert_threads_return_to(baseline)
        assert result.comm_bytes == session.context.ledger.total_bytes  # books stay readable
        with pytest.raises(ClusterError, match="closed"):
            session.run(fan_out_program())
        with pytest.raises(ClusterError, match="closed"):
            session.run_systemml(fan_out_program())

    def test_unclosed_session_dropped(self):
        # What the benchmark does: DMacSession(...).run(...) and drop.
        baseline = live_threads()
        gc.collect()
        gc.disable()
        try:
            # Refcounting alone must free the context: the executor cuts
            # the ExecutionState <-> ResourceManager cycle after each run.
            DMacSession(small_blocks()).run(fan_out_program())
            assert_threads_return_to(baseline)
        finally:
            gc.enable()
        DMacSession(small_blocks()).run(fan_out_program())
        gc.collect()
        assert_threads_return_to(baseline)

    def test_lazy_a_session_that_never_fans_out_starts_no_thread(self):
        baseline = live_threads()
        serial = ClusterConfig(num_workers=4, threads_per_worker=1, max_concurrent_stages=1)
        with DMacSession(serial) as session:
            session.run(fan_out_program())
            assert not live_threads() - baseline
            assert started(session.context.lanes) == 0

    def test_after_a_stage_that_raises(self):
        baseline = live_threads()
        with pytest.raises(StageExecutionError) as caught:
            with DMacSession(small_blocks()) as session:
                with failing_products(RuntimeError("boom")):
                    session.run(fan_out_program())
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert_threads_return_to(baseline)
        # ... and un-closed: a failed run leaves tracebacks (cycles) behind,
        # so this one may need the collector -- the finalizer backstop.
        with pytest.raises(StageExecutionError), failing_products(RuntimeError("boom")):
            DMacSession(small_blocks()).run(fan_out_program())
        del caught
        gc.collect()
        assert_threads_return_to(baseline)

    def test_after_a_chaos_run_with_retries(self):
        baseline = live_threads()
        config = small_blocks(recovery=RecoveryConfig(max_stage_attempts=6))
        program = fan_out_program()
        with DMacSession(config) as session:
            clean = session.run(program)
        chaos = ChaosEngine(11, "crash:stage=1;flaky:at=shuffle,p=0.5,times=3")
        with DMacSession(config) as session:
            faulted = session.run(program, chaos=chaos)
        assert faulted.recovery["injected"] >= 1
        assert faulted.recovery["retries"] >= 1
        for name, array in clean.matrices.items():
            np.testing.assert_array_equal(faulted.matrices[name], array)
        assert_threads_return_to(baseline)

    def test_after_keyboard_interrupt_inside_a_block_task(self):
        baseline = live_threads()
        with pytest.raises(StageExecutionError) as caught:
            with DMacSession(small_blocks()) as session:
                with failing_products(KeyboardInterrupt()):
                    session.run(fan_out_program())
        assert isinstance(caught.value.__cause__, KeyboardInterrupt)
        assert_threads_return_to(baseline)

    def test_after_service_close_following_50_jobs(self):
        baseline = live_threads()
        service = MatrixService(
            ServiceConfig(tenants=(TenantSpec("ana"), TenantSpec("bob")), cluster=CLUSTER)
        )
        workload = build_workload(*SERVE_SIZED)
        for index in range(50):
            service.submit(
                JobSpec(
                    tenant=("ana", "bob")[index % 2],
                    program=workload.program,
                    inputs=workload.inputs,
                )
            )
        finished = service.drain()
        assert [record.state for record in finished] == ["done"] * 50
        assert len(lane_threads()) <= 2 * LanePool().width  # one pool per tenant
        service.close()
        service.close()
        assert_threads_return_to(baseline)
        assert service.report()["jobs"]  # reports stay readable


# -- (ii) counts, not clocks ---------------------------------------------------


@contextlib.contextmanager
def counting_starts():
    """Count ``Thread.start`` calls and executor constructions."""
    counts: Counter = Counter()
    real_start, real_init = threading.Thread.start, ThreadPoolExecutor.__init__

    def start(self):
        counts["threads"] += 1
        real_start(self)

    def init(self, *args, **kwargs):
        counts["executors"] += 1
        real_init(self, *args, **kwargs)

    with mock.patch.object(threading.Thread, "start", start):
        with mock.patch.object(ThreadPoolExecutor, "__init__", init):
            yield counts


class TestCounts:
    def test_a_job_on_a_warm_session_starts_nothing(self):
        workload = build_workload(*SERVE_SIZED)
        # Width 1: once its one thread runs, "warm" is not a matter of luck.
        with pooled(1), DMacSession(CLUSTER) as session:
            with counting_starts() as cold:
                first = session.run(workload.program, workload.inputs)
            assert cold == {"threads": 1}, "the job must fan out"
            with counting_starts() as warm:
                second = session.run(workload.program, workload.inputs)
            assert warm == {}  # 37.7 threads and 18.8 executors before the pool
        assert first.comm_bytes == second.comm_bytes

    @pytest.mark.parametrize("width", WIDTHS)
    def test_a_fresh_session_starts_at_most_width_threads(self, width):
        workload = build_workload(*SERVE_SIZED)
        with pooled(width), counting_starts() as counts:
            with DMacSession(CLUSTER) as session:
                session.run(workload.program, workload.inputs)
        assert counts["executors"] == 1
        assert 1 <= counts["threads"] <= width

    def test_engines_resolve_without_building_a_list(self):
        with DMacSession(CLUSTER) as session:
            context = session.context
            with mock.patch.object(
                type(context), "engines", new_callable=mock.PropertyMock
            ) as engines:
                session.run(fan_out_program())
            engines.assert_not_called()  # a PropertyMock is called on every read
            assert [context.engine_for_partition(slot) for slot in range(4)] == context.engines

    def test_one_graph_and_one_peak_prediction_per_plan_per_run(self):
        from repro.runtime.graph import StageGraph
        from repro.verify import memory

        workload = build_workload("powiter", WorkloadParams(rows=120))
        real_graph, real_predict = StageGraph.from_plan.__func__, memory.predict_peak_memory
        counts: Counter = Counter()

        def from_plan(cls, plan):
            counts["graphs"] += 1
            return real_graph(cls, plan)

        def predict(*args, **kwargs):
            counts["predictions"] += 1
            return real_predict(*args, **kwargs)

        with DMacSession(CLUSTER) as session:
            reference = session.run(workload.program, workload.inputs)
            with mock.patch.object(StageGraph, "from_plan", classmethod(from_plan)):
                with mock.patch.object(memory, "predict_peak_memory", predict):
                    result = session.run(workload.program, workload.inputs)
        assert result.num_segments > 2  # the body plan executed repeatedly ...
        assert counts == {"graphs": 2, "predictions": 2}  # ... prologue + body, once each
        assert result.predicted_peak_memory_bytes == reference.predicted_peak_memory_bytes
        assert [s.result.predicted_peak_memory_bytes for s in result.segments] == [
            s.result.predicted_peak_memory_bytes for s in reference.segments
        ]


# -- (iii) the map property and the in-flight bounds ---------------------------


class Instrumented:
    """A task runner that records calls and the in-flight high-water mark."""

    def __init__(self, failing=frozenset()):
        self.failing = failing
        self.calls: Counter = Counter()
        self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, task):
        with self._lock:
            self.calls[task] += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.0002)  # long enough for helper lanes to join in
            if task in self.failing:
                raise ValueError(task)
            return task * task
        finally:
            with self._lock:
                self.in_flight -= 1


@pytest.fixture(scope="module")
def pools():
    made = {width: LanePool(width) for width in WIDTHS}
    yield made
    for pool in made.values():
        pool.close()


class TestMap:
    @settings(max_examples=60)
    @given(
        count=st.integers(0, 24),
        width=st.integers(1, 5),
        pool_width=st.sampled_from(WIDTHS),
        failing=st.frozensets(st.integers(0, 23), max_size=3),
    )
    def test_order_once_bound_and_lowest_error(self, pools, count, width, pool_width, failing):
        tasks = list(range(count))
        failing = frozenset(index for index in failing if index < count)
        runner = Instrumented(failing)
        if failing:
            with pytest.raises(ValueError) as caught:
                pools[pool_width].map(runner, tasks, width)
            assert caught.value.args == (min(failing),)
            assert runner.in_flight == 0  # started tasks finished before map returned
            assert all(n == 1 for n in runner.calls.values())
        else:
            assert pools[pool_width].map(runner, tasks, width) == [t * t for t in tasks]
            assert runner.calls == Counter(tasks)
        assert runner.peak <= min(width, max(count, 1))

    def test_stress_many_callers_share_one_pool(self):
        """More callers than cores, a near-zero switch interval: a lost
        update on the ticket counter would skip or repeat a task."""
        pool = LanePool(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def caller(seed):
            ran: list[int] = []  # list.append is atomic

            def runner(task):
                ran.append(task)
                return task * task

            tasks = list(range(seed, seed + 40))
            return pool.map(runner, tasks, 3) == [t * t for t in tasks] and sorted(ran) == tasks

        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                outcomes = list(callers.map(caller, range(64), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert outcomes == [True] * 64
        assert started(pool) <= 2

    def test_after_a_failure_no_lane_takes_a_new_ticket(self):
        runner = Instrumented(failing={0})
        with pytest.raises(ValueError):
            LanePool(1).map(runner, list(range(100)), 1)
        assert runner.calls == {0: 1}

    @pytest.mark.parametrize("pool_width", WIDTHS)
    def test_engine_calls_keep_the_threads_per_worker_bound(self, pool_width):
        pool = LanePool(pool_width)
        engine = LocalEngine(threads=3, lanes=pool)
        runner = Instrumented()
        tasks = list(range(40))
        assert engine._run(tasks, runner) == [t * t for t in tasks]
        assert runner.peak <= 3
        assert started(pool) <= pool_width
        pool.close()

    def test_a_standalone_engine_owns_a_private_lazy_pool(self):
        baseline = live_threads()
        engine = LocalEngine(threads=2)
        assert not live_threads() - baseline
        runner = Instrumented()
        assert engine._run(list(range(8)), runner) == [t * t for t in range(8)]
        assert isinstance(engine._lanes, LanePool)
        del engine
        assert_threads_return_to(baseline)

    @pytest.mark.parametrize("pool_width", WIDTHS)
    @pytest.mark.parametrize("max_concurrent", (1, 3))
    def test_scheduler_keeps_the_max_concurrent_bound(self, pool_width, max_concurrent):
        # Six roots, then a fan-in and a tail: both the initial burst and
        # the freed-dependents path are exercised.
        deps = {i: () for i in range(6)} | {6: (0, 1), 7: (2, 3, 4, 5), 8: (6, 7)}
        graph = synthetic_graph(deps)
        runner = Instrumented()
        order: list[int] = []

        def run_node(node):
            order.append(node.index)
            runner(node.index)
            return StageMeter()

        pool = LanePool(pool_width)
        StageScheduler(max_concurrent, lanes=pool).run(graph, run_node)
        pool.close()
        assert runner.calls == Counter(range(9))
        assert runner.peak <= max_concurrent
        if max_concurrent == 1:
            # The serial case of the one loop: index order, on this thread.
            assert order == list(range(9))
            assert started(pool) == 0

    def test_a_chain_runs_on_the_dispatching_thread(self):
        graph = synthetic_graph({0: (), 1: (0,), 2: (1,)})
        seen = []

        def run_node(node):
            seen.append(threading.get_ident())
            return StageMeter()

        pool = LanePool(2)
        StageScheduler(8, lanes=pool).run(graph, run_node)
        assert seen == [threading.get_ident()] * 3
        assert started(pool) == 0

    def test_inline_node_failure_is_wrapped_like_any_other(self):
        graph = synthetic_graph({0: (), 1: (0,)})

        def run_node(node):
            raise KeyboardInterrupt()

        with pytest.raises(StageExecutionError) as caught:
            StageScheduler(8, lanes=LanePool(1)).run(graph, run_node)
        assert isinstance(caught.value.__cause__, KeyboardInterrupt)
        assert caught.value.node == 0

    def test_width_one_pool_with_eight_concurrent_stage_nodes_terminates(self):
        """Trap (b): stage nodes occupy the pool's only thread and submit
        helper lanes to the same pool; they must cancel, not wait."""
        pool = LanePool(1)
        graph = synthetic_graph({i: () for i in range(8)})
        runner = Instrumented()

        def run_node(node):
            tasks = [node.index * 10 + k for k in range(6)]
            assert pool.map(runner, tasks, 2) == [t * t for t in tasks]
            return StageMeter()

        worker = threading.Thread(
            target=StageScheduler(8, lanes=pool).run, args=(graph, run_node), daemon=True
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "deadlock: a lane waited for a helper that cannot start"
        assert sum(runner.calls.values()) == 48
        pool.close()

    def test_width_one_session_with_eight_concurrent_stages_matches_serial(self):
        program = fan_out_program(products=8)
        serial = ClusterConfig(
            num_workers=4, threads_per_worker=1, max_concurrent_stages=1, block_size=16
        )
        with DMacSession(serial) as session:
            expected = session.run(program)
        with pooled(1), DMacSession(small_blocks(max_concurrent_stages=8)) as session:
            result = session.run(program)
        assert result.comm_bytes == expected.comm_bytes
        for name, array in expected.matrices.items():
            np.testing.assert_array_equal(result.matrices[name], array)


# -- (iv) contextvars ------------------------------------------------------------


class TestLanesSeeTheSubmittingStage:
    def test_meter_ledger_scope_and_stage_on_helper_and_caller_lanes(self):
        ledger = CommunicationLedger()
        meter = StageMeter()
        both_lanes = threading.Barrier(2, timeout=10)

        def runner(task):
            if task < 2:
                both_lanes.wait()  # two tasks in flight: two different lanes
            return (
                threading.get_ident(),
                active_meter(),
                ledger.current_scope(),
                current_stage(),
            )

        pool = LanePool(1)
        with metered(meter), ledger.scope("stage-4"), stage_scope(7, 4):
            seen = pool.map(runner, list(range(6)), 2)
        pool.close()
        assert {ident for ident, *__ in seen} > {threading.get_ident()}  # caller + helper
        assert {tuple(rest) for __, *rest in seen} == {(meter, "stage-4", (7, 4))}
        # Everything a task set was with-scoped: nothing leaked to the caller.
        assert active_meter() is None and current_stage() is None
        assert ledger.current_scope() == ""

    def test_an_inline_stage_node_runs_under_a_copy(self):
        leaked = []

        def run_node(node):
            leaked.append(stage_scope(node.index, 1).__enter__())  # never exited
            return StageMeter()

        StageScheduler(8, lanes=LanePool(1)).run(synthetic_graph({0: ()}), run_node)
        assert leaked and current_stage() is None


# -- (v) tests/test_concurrent_sessions.py on one shared MatrixService ----------


@pytest.fixture
def service():
    made = MatrixService(
        ServiceConfig(
            tenants=tuple(TenantSpec(f"tenant-{app}") for app in APPS),
            cluster=ClusterConfig(num_workers=4),
        )
    )
    yield made
    made.close()


def run_on_tenant(service, app, label=None):
    """One run on the tenant's long-lived session, from the calling thread."""
    session = service.sessions[f"tenant-{app}"]
    workload = build_workload(app, PARAMS)
    with session.context.ledger.scope(label or app):
        return session.run(workload.program, workload.inputs, trace=True)


class TestSharedServiceSessions:
    def solo(self, app):
        workload = build_workload(app, PARAMS)
        with DMacSession(ClusterConfig(num_workers=4)) as session:
            return session.run(workload.program, workload.inputs, trace=True)

    def test_concurrent_tenant_runs_match_solo_baselines(self, service):
        baselines = {app: self.solo(app) for app in APPS}
        for __ in range(2):  # the same sessions, warm the second time round
            with ThreadPoolExecutor(max_workers=len(APPS)) as threads:
                results = list(threads.map(lambda app: run_on_tenant(service, app), APPS))
            for app, result in zip(APPS, results):
                base = baselines[app]
                assert result.comm_bytes == base.comm_bytes
                assert result.simulated_seconds == base.simulated_seconds
                assert result.num_stages == base.num_stages
                assert sorted(r.flops for r in result.trace) == sorted(
                    r.flops for r in base.trace
                )
                for name, matrix in base.matrices.items():
                    np.testing.assert_array_equal(result.matrices[name], matrix)

    def test_ledger_and_clock_isolation(self, service):
        with ThreadPoolExecutor(max_workers=len(APPS)) as threads:
            results = list(
                threads.map(lambda app: run_on_tenant(service, app, f"thread-{app}"), APPS)
            )
        for app, result in zip(APPS, results):
            context = service.sessions[f"tenant-{app}"].context
            by_scope = context.ledger.bytes_by_scope()
            assert sum(by_scope.values()) == result.comm_bytes
            assert all(scope.startswith(f"thread-{app}") for scope in by_scope)
            assert context.clock.elapsed_seconds == result.simulated_seconds

    def test_refcounts_drain_under_concurrency(self, service):
        managers = []
        real_init = ResourceManager.__init__

        class Recording(ResourceManager):
            def __init__(self, *args, **kwargs):
                real_init(self, *args, **kwargs)
                managers.append(self)

        with mock.patch("repro.runtime.executor.ResourceManager", Recording):
            with ThreadPoolExecutor(max_workers=len(APPS)) as threads:
                list(threads.map(lambda app: run_on_tenant(service, app), APPS))
        assert len(managers) == len(APPS)
        for manager in managers:
            published = Counter(i for kind, i in manager.events if kind == "publish")
            released = Counter(i for kind, i in manager.events if kind == "release")
            assert all(count == 1 for count in published.values())
            assert released == published
            assert manager.live_instances() == []

    def test_submitted_jobs_report_the_solo_books(self, service):
        for app in APPS + APPS:
            service.submit(
                JobSpec(tenant=f"tenant-{app}", app=app, params=dataclasses.asdict(PARAMS))
            )
        finished = service.drain()
        assert [record.state for record in finished] == ["done"] * 6
        for record in finished:
            base = self.solo(record.app)
            assert (record.comm_bytes, record.simulated_seconds, record.num_stages) == (
                base.comm_bytes,
                base.simulated_seconds,
                base.num_stages,
            )
