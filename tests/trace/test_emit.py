"""The emit API: a global tracer slot, the stage position the active stage
meter carries, and the one emit path of fault and recovery events -- all
dark (single ``None`` read) when tracing is off."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.datasets import sparse_random
from repro.programs import build_linreg_program
from repro.faults import RecoveryLog
from repro.runtime.metering import StageMeter, metered
from repro.trace import TraceCollector, active_tracer, install_tracer
from repro.trace.emit import current_stage, emit, recording


class TestTracerSlot:
    def test_no_tracer_by_default(self):
        assert active_tracer() is None

    def test_install_and_reset(self):
        collector = TraceCollector()
        with install_tracer(collector):
            assert active_tracer() is collector
        assert active_tracer() is None

    def test_reset_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with install_tracer(TraceCollector()):
                raise RuntimeError("boom")
        assert active_tracer() is None

    def test_nested_install_rejected(self):
        with install_tracer(TraceCollector()):
            with pytest.raises(RuntimeError):
                with install_tracer(TraceCollector()):
                    pass  # pragma: no cover
        assert active_tracer() is None

    def test_install_none_is_a_noop_window(self):
        with install_tracer(None):
            assert active_tracer() is None


class TestStageScope:
    def test_no_stage_by_default(self):
        assert current_stage() is None

    def test_scope_sets_and_resets(self):
        with metered(StageMeter((3, 7))):
            assert current_stage() == (3, 7)
        assert current_stage() is None

    def test_scopes_nest(self):
        with metered(StageMeter((0, 1))):
            with metered(StageMeter((2, 5))):
                assert current_stage() == (2, 5)
            assert current_stage() == (0, 1)

    def test_a_meter_of_no_node_has_no_position(self):
        with metered(StageMeter()):
            assert current_stage() is None


RETRY = {
    "event": "retry",
    "node": 2,
    "stage": 5,
    "attempt": 1,
    "backoff_sec": 1.0,
    "error": "WorkerCrashed",
    "detail": "boom",
}


class TestEmit:
    def test_records_without_a_tracer(self):
        log = RecoveryLog()
        with recording(log):
            emit(RETRY)
        emit(RETRY)  # no record installed: dropped
        assert log.events() == [RETRY]

    def test_each_kind_becomes_one_tracer_event(self):
        tracer, log = TraceCollector(), RecoveryLog()
        events = [
            {"event": "inject", "fault": "flaky", "clause": 0, "ordinal": 3},
            RETRY,
            {"event": "speculation", "node": 4, "stage": 2, "slowed_sec": 9.0},
            {"event": "recovered", "instance": "x@1", "steps": 2, "bytes": 64},
            {"event": "checkpoint", "instance": "x@1", "bytes": 64},
        ]
        with install_tracer(tracer), recording(log), metered(StageMeter((1, 3))):
            for event in events:
                emit(event)
        assert len(log.events()) == len(events)
        seen = sorted((e.kind, e.name, e.stage, e.attrs) for e in tracer.events())
        assert seen == sorted([
            ("fault", "flaky", (1, 3), {"clause": 0, "ordinal": 3}),
            ("retry", "WorkerCrashed", (2, 5),
             {"attempt": 1, "backoff_sec": 1.0, "detail": "boom"}),
            ("speculation", "speculative-copy", (4, 2), {"slowed_sec": 9.0}),
            ("recovery", "cone", (1, 3), {"instance": "x@1", "steps": 2, "bytes": 64}),
        ])

    def test_lanes_inherit_the_record(self):
        from repro.localexec.lanes import LanePool

        log, pool = RecoveryLog(), LanePool(2)
        with recording(log):
            pool.map(lambda i: emit({"event": "checkpoint", "n": i}), list(range(4)), 2)
        pool.close()
        assert sorted(e["n"] for e in log.events()) == [0, 1, 2, 3]


class TestDarkWhenOff:
    def test_untraced_run_collects_nothing(self):
        design = sparse_random(60, 8, 0.2, seed=1)
        target = sparse_random(60, 1, 1.0, seed=2)
        program = build_linreg_program(design.shape, 0.2, iterations=1)
        session = DMacSession(ClusterConfig(num_workers=2, block_size=8))
        result = session.run(program, {"V": design, "y": target})
        assert result.tracing is None
        assert active_tracer() is None

    def test_session_trace_flag_creates_a_collector(self):
        design = sparse_random(60, 8, 0.2, seed=1)
        target = sparse_random(60, 1, 1.0, seed=2)
        program = build_linreg_program(design.shape, 0.2, iterations=1)
        session = DMacSession(
            ClusterConfig(num_workers=2, block_size=8), trace=True
        )
        result = session.run(program, {"V": design, "y": target})
        assert isinstance(result.tracing, TraceCollector)
        assert result.tracing.spans("stage")
        assert active_tracer() is None  # uninstalled after the run
