"""The emit API: how the rest of the system reports to an active tracer,
and the one path of every fault and recovery event (:func:`emit`).

Design constraints, in order:

1. **Zero cost when off.**  Every instrumented site (the ledger's
   ``record``, the engines' task lanes, the block cache) guards its
   emission with ``tracer = active_tracer(); if tracer is None: ...``.
   With no tracer installed that is a single module-global read -- the
   same discipline the chaos hooks follow.  Tracing only observes: a
   traced run's results are byte-identical to an untraced one's
   (``tests/trace/test_reconcile.py``), and ``benchmarks/e2e`` reports
   what it costs in wall-clock (``trace.overhead_ratio``).

2. **Visible from every thread.**  One execution spans the dispatching
   thread and the cluster's lane pool (stage nodes and block tasks).  The
   *tracer* is process-global (installed around one execution, exactly
   like ``ClusterContext.install_chaos``); the *position* within the
   execution -- which stage-graph node this thread is working for -- is
   the active :class:`~repro.runtime.metering.StageMeter`'s, a
   :mod:`contextvars` variable installed per node attempt and propagated
   into helper lanes by :meth:`repro.localexec.lanes.LanePool.submit`'s
   context copy.  The execution's *record* of fault and recovery events
   travels the same way.

3. **No upward imports.**  Like :mod:`repro.runtime.metering`, the one
   :mod:`repro` module it imports, this module sits below the ledger, the
   clock and the engines in the import graph so any layer may report to
   it.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

from repro.runtime.metering import active_meter

#: The process-wide tracer of the currently executing traced run (if any).
#: A plain global, not a context variable: spans and events arrive from
#: the dispatching thread and lane-pool threads alike, and all of them
#: must see the same collector.
_TRACER = None

#: The record (anything with ``record(event)``) that :func:`emit` appends
#: to: the executing chaos run's RecoveryLog, or ``None``.
_RECORD: contextvars.ContextVar = contextvars.ContextVar("repro_event_record", default=None)

#: Event kind -> (tracer point-event kind, the event key its name is read
#: from, the fixed name of a kind without one).  Checkpoints are recorded,
#: not traced.
_FORWARD: dict[str, tuple[str, str | None, str | None]] = {
    "inject": ("fault", "fault", None),
    "retry": ("retry", "error", None),
    "speculation": ("speculation", None, "speculative-copy"),
    "recovered": ("recovery", None, "cone"),
}


def active_tracer():
    """The installed tracer, or ``None`` when tracing is off."""
    return _TRACER


@contextlib.contextmanager
def install_tracer(tracer) -> Iterator[None]:
    """Install ``tracer`` as the process-wide tracer for the block.

    Nesting is rejected: one traced execution at a time (sessions run
    executions sequentially; the clean/faulted pair of a chaos run uses
    two sessions back to back, never concurrently).
    """
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("a tracer is already installed")
    _TRACER = tracer
    try:
        yield
    finally:
        _TRACER = None


@contextlib.contextmanager
def recording(record) -> Iterator[None]:
    """Make ``record`` the target of :func:`emit` for this context (and
    the lanes it submits to) for the block."""
    token = _RECORD.set(record)
    try:
        yield
    finally:
        _RECORD.reset(token)


def current_stage() -> tuple[int, int] | None:
    """``(node, stage)`` of the executing stage-graph node, if any: the
    position the active stage meter carries."""
    meter = active_meter()
    return meter.position if meter is not None else None


def emit(event: dict) -> None:
    """Report one fault or recovery event (``{"event": kind, ...}``).

    The event is appended to the record :func:`recording` installed, and
    a traced kind is forwarded to the active tracer, at the event's own
    ``(node, stage)`` when it carries both keys, else at
    :func:`current_stage`.
    """
    record = _RECORD.get()
    if record is not None:
        record.record(event)
    tracer = _TRACER
    forward = _FORWARD.get(event["event"])
    if tracer is None or forward is None:
        return
    kind, key, name = forward
    stage = (
        (event["node"], event["stage"])
        if "node" in event and "stage" in event
        else current_stage()
    )
    attrs = {k: v for k, v in event.items() if k not in ("event", "node", "stage", key)}
    tracer.event(kind, name if key is None else event[key], stage=stage, **attrs)
