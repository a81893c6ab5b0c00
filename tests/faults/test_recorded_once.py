"""Every fault and recovery event is recorded once: the chaos run's record
and the tracer each see it exactly once, through the one emit path."""

from collections import Counter

import pytest

from repro import ClusterConfig, DMacSession
from repro.config import RecoveryConfig
from repro.faults import ChaosEngine
from repro.programs.registry import WorkloadParams, build_workload

FAULTS = "crash:p=0.3;flaky:p=0.2;straggler:p=0.5,factor=6"
RUNS = {
    "pagerank": FAULTS + ";lostblock:instance=rank,iteration=2",
    "svd": FAULTS,
}
#: What seed 11 fires on each run.
FIRED = {
    "pagerank": {"inject": 11, "retry": 7, "recovered": 1, "checkpoint": 5},
    "svd": {"inject": 18, "retry": 11, "speculation": 1, "checkpoint": 20},
}
#: Recorded event -> the tracer's point-event kind for it.
TRACED_AS = {
    "inject": "fault",
    "retry": "retry",
    "speculation": "speculation",
    "recovered": "recovery",
}


def traced_chaos_run(app: str):
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=2,
        recovery=RecoveryConfig(speculation_multiplier=1.5, checkpoint_every=1),
    )
    load = build_workload(app, WorkloadParams(scale=1e-3, iterations=3, rank=3))
    with DMacSession(config, trace=True) as session:
        return session.run(load.program, load.inputs, chaos=ChaosEngine(11, RUNS[app]))


@pytest.fixture(scope="module")
def runs():
    return {app: traced_chaos_run(app) for app in RUNS}


@pytest.mark.parametrize("app", sorted(RUNS))
def test_record_and_tracer_count_each_event_once(runs, app):
    result = runs[app]
    recorded = Counter(event["event"] for event in result.recovery["events"])
    traced = Counter(
        event.kind for segment in result.segments for event in segment.result.tracing.events()
    )
    for kind, tracer_kind in TRACED_AS.items():
        assert recorded[kind] == traced[tracer_kind], kind
    assert result.recovery["checkpoints"] == recorded["checkpoint"]
    assert result.recovery["injected"] == recorded["inject"]
    assert result.recovery["retries"] == recorded["retry"]


@pytest.mark.parametrize("app", sorted(RUNS))
def test_each_event_is_recorded_once(runs, app):
    """What the seeded spec fires, counted once each -- so neither
    comparison above is vacuous, and an event emitted twice (to both the
    record and the tracer) still shows."""
    recorded = Counter(event["event"] for event in runs[app].recovery["events"])
    assert recorded == FIRED[app]
