"""Exports: Chrome trace-event JSON, a structured JSON document, and a
terminal timeline.

The Chrome export (``--format chrome``) is loadable in Perfetto /
``chrome://tracing`` and is **deterministic**: it is rendered exclusively
from simulated-clock timestamps and canonically ordered spans/events, so
the same app + seed + faults spec produces byte-identical output no matter
how the host's threads interleaved.  Wall-clock numbers never appear in
it; they only show up in the summary view, clearly labelled.
"""

from __future__ import annotations

import json

from repro.trace.collector import TraceCollector

#: Simulated seconds -> Chrome trace microseconds.
_US = 1_000_000


def _span_args(span) -> dict:
    args = {}
    for key in sorted(span.attrs):
        value = span.attrs[key]
        if isinstance(value, tuple):
            value = list(value)
        args[key] = value
    return args


def to_chrome_trace(collector: TraceCollector) -> str:
    """Render the trace as a Chrome trace-event JSON string.

    Tracks (``tid``) are stage-graph node indices; the plan span rides on
    track -1 so Perfetto shows the full makespan above the per-node lanes.
    Point events appear as instants pinned to the simulated start of the
    stage they are attributed to (driver-side events sit at t=0).
    """
    events: list[dict] = []
    stage_starts: dict[int, float] = {}
    for span in collector.spans():
        if span.sim_start is None or span.sim_end is None:
            continue  # failed attempts / block-tasks live on wall clock only
        if span.kind == "stage":
            stage_starts[span.attrs["node"]] = span.sim_start
        tid = -1 if span.kind == "plan" else span.attrs.get("node", -1)
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "name": f"{span.kind}:{span.name}",
                "cat": span.kind,
                "ts": span.sim_start * _US,
                "dur": span.sim_seconds * _US,
                "args": _span_args(span),
            }
        )
    for event in collector.events():
        node = event.stage[0] if event.stage is not None else -1
        ts = stage_starts.get(node, 0.0) * _US
        attrs = {}
        for key in sorted(event.attrs):
            value = event.attrs[key]
            if isinstance(value, tuple):
                value = list(value)
            attrs[key] = value
        events.append(
            {
                "ph": "i",
                "pid": 0,
                "tid": node,
                "name": f"{event.kind}:{event.name}",
                "cat": event.kind,
                "ts": ts,
                "s": "t",
                "args": attrs,
            }
        )
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated",
            "metrics": collector.metrics().to_json_dict(),
        },
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def to_json_dict(collector: TraceCollector) -> dict:
    """The full structured trace document (``--format json``).

    Spans are numbered by their position in the canonical export order
    (``parent_id`` remapped to match): the collector's own ids follow the
    order host threads happened to open spans in and stay internal.
    """
    ordered = collector.spans()
    position = {span.span_id: index for index, span in enumerate(ordered)}
    spans = []
    for span in ordered:
        spans.append(
            {
                "span_id": position[span.span_id],
                "parent_id": position.get(span.parent_id),
                "kind": span.kind,
                "name": span.name,
                "sim_start": span.sim_start,
                "sim_end": span.sim_end,
                "sim_seconds": span.sim_seconds,
                "attrs": _span_args(span),
            }
        )
    events = []
    for event in collector.events():
        events.append(
            {
                "kind": event.kind,
                "name": event.name,
                "stage": list(event.stage) if event.stage is not None else None,
                "attrs": {key: event.attrs[key] for key in sorted(event.attrs)},
            }
        )
    plan_spans = collector.spans("plan")
    wall_seconds = sum(span.wall_seconds for span in plan_spans)
    return {
        "spans": spans,
        "events": events,
        "metrics": collector.metrics().to_json_dict(),
        "critical_path": list(collector.meta.get("critical_path", ())),
        "wall_seconds": wall_seconds,
    }


def _bar(start: float, end: float, makespan: float, width: int = 40) -> str:
    if makespan <= 0:
        return " " * width
    left = int(round(start / makespan * width))
    right = max(left + 1, int(round(end / makespan * width)))
    right = min(right, width)
    return " " * left + "#" * (right - left) + " " * (width - right)


def format_summary(collector: TraceCollector) -> str:
    """A terminal timeline of the simulated schedule plus headline metrics."""
    lines: list[str] = []
    stages = collector.final_stage_spans()
    makespan = max((span.sim_end for span in stages), default=0.0)
    lines.append(f"simulated timeline ({makespan:.6f} s makespan)")
    for span in stages:
        marker = "*" if span.attrs.get("on_critical_path") else " "
        lines.append(
            f"  node {span.attrs['node']:>3} stage {span.attrs['stage']:>3} {marker} "
            f"|{_bar(span.sim_start, span.sim_end, makespan)}| "
            f"{span.sim_seconds:.6f} s"
        )
    lines.append("  (* = on the critical path)")
    metrics = collector.metrics().to_json_dict()
    lines.append("metrics")
    for name, value in metrics["counters"].items():
        lines.append(f"  {name:<40} {value}")
    for name, value in metrics["gauges"].items():
        lines.append(f"  {name:<40} {value:.4f}")
    for name, hist in metrics["histograms"].items():
        lines.append(
            f"  {name:<40} n={hist['count']} sum={hist['sum']:.6g} "
            f"min={hist['min']:.6g} max={hist['max']:.6g} mean={hist['mean']:.6g}"
        )
    return "\n".join(lines)
