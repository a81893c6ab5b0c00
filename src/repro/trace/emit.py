"""The emit API: how the rest of the system reports to an active tracer.

Design constraints, in order:

1. **Zero cost when off.**  Every instrumented site (the ledger's
   ``record``, the scheduler's retry loop, the engines' task lanes) guards
   its emission with ``tracer = active_tracer(); if tracer is None: ...``.
   With no tracer installed that is a single module-global read -- the
   same discipline the chaos hooks follow.  Tracing only observes: a
   traced run's results are byte-identical to an untraced one's
   (``tests/trace/test_reconcile.py``), and ``benchmarks/e2e`` reports
   what it costs in wall-clock (``trace.overhead_ratio``).

2. **Visible from every thread.**  One execution spans the dispatching
   thread and the cluster's lane pool (stage nodes and block tasks).  The
   *tracer* is process-global (installed around one execution, exactly
   like ``ClusterContext.install_chaos``); the *position* within the
   execution -- which stage-graph node this thread is working for -- is a
   :mod:`contextvars` variable, installed per node attempt and propagated
   into helper lanes by :meth:`repro.localexec.lanes.LanePool.submit`'s
   context copy.

3. **No upward imports.**  Like :mod:`repro.runtime.metering`, this module
   imports nothing from :mod:`repro`: it sits below the ledger, the clock
   and the engines in the import graph so any layer may report to it.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

#: The process-wide tracer of the currently executing traced run (if any).
#: A plain global, not a context variable: spans and events arrive from
#: the dispatching thread and lane-pool threads alike, and all of them
#: must see the same collector.
_TRACER = None

#: ``(node index, stage number)`` of the stage-graph node this thread is
#: currently executing for, or ``None`` outside any node (driver code).
_STAGE: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "repro_trace_stage", default=None
)


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


def current_stage() -> tuple[int, int] | None:
    """``(node, stage)`` of the executing stage-graph node, if any."""
    return _STAGE.get()


@contextlib.contextmanager
def stage_scope(node: int, stage: int) -> Iterator[None]:
    """Mark this thread (and contexts copied from it) as executing one
    stage-graph node, so point events can be attributed to it."""
    token = _STAGE.set((node, stage))
    try:
        yield
    finally:
        _STAGE.reset(token)
