"""repro.trace -- structured tracing + metrics for simulated executions.

The tracer records what an execution *did* -- spans (plan -> stage -> step
-> block-task) and point events (transfers, cache transitions, faults,
retries) -- on both the wall clock and the simulated clock, aggregates
them into a metrics registry, exports Chrome trace-event JSON (Perfetto)
and a terminal timeline, and cross-checks its own sums against the
CommunicationLedger and SimulatedClock (see :mod:`repro.trace.reconcile`).

Tracing is strictly opt-in: with no tracer installed every emit site is a
single global read that finds ``None`` (see :mod:`repro.trace.emit`).
Fault and recovery events reach the tracer only through
:func:`repro.trace.emit.emit`, which also appends them to a chaos run's
record.
"""

from repro._exports import export_table

_EXPORTS = {
    "MetricsRegistry": "repro.trace.collector",
    "TraceCollector": "repro.trace.collector",
    "active_tracer": "repro.trace.emit",
    "current_stage": "repro.trace.emit",
    "install_tracer": "repro.trace.emit",
    "format_summary": "repro.trace.export",
    "to_chrome_trace": "repro.trace.export",
    "to_json_dict": "repro.trace.export",
    "EVENT_KINDS": "repro.trace.model",
    "SPAN_KINDS": "repro.trace.model",
    "PointEvent": "repro.trace.model",
    "Span": "repro.trace.model",
    "assert_reconciled": "repro.trace.reconcile",
    "reconcile": "repro.trace.reconcile",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
