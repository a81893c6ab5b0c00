"""The terminal timeline and the raw JSON document."""

import json

from repro import ClusterConfig, DMacSession
from repro.trace import format_summary, to_json_dict

from .conftest import seven_apps


def _traced_pagerank():
    __, program, inputs = seven_apps()[1]
    session = DMacSession(ClusterConfig(num_workers=4, block_size=8), trace=True)
    result = session.run(program, inputs)
    return result.tracing, result


class TestSummary:
    def test_timeline_lists_every_stage_node(self):
        tracer, __ = _traced_pagerank()
        summary = format_summary(tracer)
        assert "simulated timeline" in summary
        for span in tracer.final_stage_spans():
            assert f"node {span.attrs['node']:>3}" in summary
        assert "* = on the critical path" in summary
        assert "metrics" in summary

    def test_critical_path_nodes_are_starred(self):
        tracer, __ = _traced_pagerank()
        starred = [
            line for line in format_summary(tracer).splitlines()
            if " * " in line and line.strip().startswith("node")
        ]
        critical = [
            s for s in tracer.final_stage_spans()
            if s.attrs.get("on_critical_path")
        ]
        assert len(starred) == len(critical) > 0


class TestJsonDocument:
    def test_document_is_json_serialisable_and_complete(self):
        tracer, result = _traced_pagerank()
        payload = json.loads(json.dumps(to_json_dict(tracer), sort_keys=True))
        assert payload["metrics"]["counters"]["bytes.total"] == result.comm_bytes
        assert payload["critical_path"], "scheduler critical path is recorded"
        assert payload["wall_seconds"] > 0
        kinds = {span["kind"] for span in payload["spans"]}
        assert {"plan", "stage", "step", "block-task"} <= kinds

    def test_step_spans_nest_inside_their_stage_interval(self):
        tracer, __ = _traced_pagerank()
        stages = {s.span_id: s for s in tracer.final_stage_spans()}
        placed_steps = [
            s for s in tracer.spans("step") if s.sim_start is not None
        ]
        assert placed_steps
        for step in placed_steps:
            stage = stages[step.parent_id]
            assert stage.sim_start <= step.sim_start
            assert step.sim_end <= stage.sim_end + 1e-12
