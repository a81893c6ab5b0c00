"""Trace determinism: the same app + seed + fault spec must export a
byte-identical Chrome trace, no matter how the host scheduled threads.

Exports use only simulated timestamps and canonical ordering, so wall
clocks, pool interleavings and concurrent-stage dispatch order cannot
leak into the output."""

import json

import pytest

from repro import ClusterConfig, DMacSession
from repro.faults import ChaosEngine
from repro.trace import to_chrome_trace, to_json_dict

from .conftest import seven_apps


def _chrome(program, inputs, *, chaos_seed=None, faults=None,
            max_concurrent=None):
    session = DMacSession(
        ClusterConfig(
            num_workers=4,
            threads_per_worker=2,
            block_size=8,
            max_concurrent_stages=max_concurrent,
        ),
        trace=True,
    )
    chaos = (
        ChaosEngine(chaos_seed, faults) if faults is not None else None
    )
    return to_chrome_trace(session.run(program, inputs, chaos=chaos).tracing)


@pytest.mark.parametrize(
    "app,program,inputs", [seven_apps()[0], seven_apps()[1]],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_chrome_export_is_byte_identical_across_runs(app, program, inputs):
    exports = {_chrome(program, inputs) for __ in range(3)}
    assert len(exports) == 1


def test_concurrent_and_serial_schedules_export_identically():
    """max_concurrent_stages only changes host dispatch order; the
    simulated timeline -- hence the export -- is the same bytes."""
    __, program, inputs = seven_apps()[0]  # gnmf has parallel stages
    assert _chrome(program, inputs, max_concurrent=1) == _chrome(
        program, inputs, max_concurrent=None
    )


def test_chrome_export_deterministic_under_faults():
    __, program, inputs = seven_apps()[1]  # pagerank
    spec = "crash:p=0.3;flaky:p=0.2;straggler:p=0.3,factor=4"
    exports = {
        _chrome(program, inputs, chaos_seed=11, faults=spec)
        for __ in range(3)
    }
    assert len(exports) == 1
    document = json.loads(next(iter(exports)))
    names = {event["name"] for event in document["traceEvents"]}
    assert any(name.startswith(("fault:", "retry:")) for name in names), (
        "the seeded faults must be visible in the export"
    )


def test_chrome_export_loads_and_uses_simulated_time():
    __, program, inputs = seven_apps()[2]  # linreg
    document = json.loads(_chrome(program, inputs))
    assert document["otherData"]["clock"] == "simulated"
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert complete, "stage/step spans must export as complete events"
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert {"pid", "tid", "name", "args"} <= set(event)


def test_raw_json_export_spans_are_ordered_canonically():
    __, program, inputs = seven_apps()[2]
    session = DMacSession(ClusterConfig(num_workers=4, block_size=8), trace=True)
    payload = to_json_dict(session.run(program, inputs).tracing)
    stage_rows = [s for s in payload["spans"] if s["kind"] == "stage"]
    starts = [row["sim_start"] for row in stage_rows]
    assert starts == sorted(starts)


def test_json_export_is_byte_identical_across_runs():
    """Span ids are positions in the canonical export order, not the order
    host threads opened spans in: five runs with two lanes per engine and
    concurrent stages differ in nothing but ``wall_seconds``."""
    __, program, inputs = seven_apps()[0]  # gnmf: parallel stages, many block tasks
    exports = set()
    for __ in range(5):
        with DMacSession(
            ClusterConfig(num_workers=4, threads_per_worker=2, block_size=8), trace=True
        ) as session:
            tracer = session.run(program, inputs).tracing
        document = to_json_dict(tracer)
        del document["wall_seconds"]
        exports.add(json.dumps(document, sort_keys=True))
    assert len(exports) == 1
    spans = json.loads(exports.pop())["spans"]
    assert [span["span_id"] for span in spans] == list(range(len(spans)))
    assert spans[0]["kind"] == "plan" and spans[0]["parent_id"] is None
    by_id = {span["span_id"]: span for span in spans}
    for span in spans[1:]:  # the remapped parents still form the plan > stage > step tree
        parent = by_id[span["parent_id"]]
        expected = {"stage": "plan", "step": "stage", "block-task": "step"}[span["kind"]]
        assert parent["kind"] == expected
