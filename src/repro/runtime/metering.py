"""Per-stage metering: redirecting charges to the stage that caused them.

The serial executor could attribute simulated time and flops to steps by
snapshotting global counters around each step.  Under the concurrent stage
scheduler two stages run at once, so global deltas would interleave.  A
:class:`StageMeter` is a private accumulator one scheduler task installs
(via a :mod:`contextvars` context variable) for the duration of its stage;
the clock and the engines consult :func:`active_meter` and, when one is
installed, charge *it* instead of (clock) or in addition to (engine
counters) the global state.  The scheduler then owns exact per-stage
durations and can commit only the critical path to the global clock.

A context variable -- not a plain thread-local -- because a worker engine
fans block tasks out to helper lanes of the cluster's thread pool; every
lane runs under a copy of the submitting task's context, so the meter (and
the ledger's scope stack, which follows the same pattern) travels with it
(see :meth:`repro.localexec.lanes.LanePool.map`).

This module intentionally imports nothing from :mod:`repro`: it sits below
the clock and the engines in the import graph.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Iterator

#: The meter of the stage currently executing on this thread (if any).
_ACTIVE: contextvars.ContextVar["StageMeter | None"] = contextvars.ContextVar(
    "repro_stage_meter", default=None
)


def active_meter() -> "StageMeter | None":
    """The installed :class:`StageMeter`, or ``None`` outside a stage."""
    return _ACTIVE.get()


@contextlib.contextmanager
def metered(meter: "StageMeter") -> Iterator["StageMeter"]:
    """Install ``meter`` as the active meter for the ``with`` block."""
    token = _ACTIVE.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE.reset(token)


class StageMeter:
    """Accumulates the simulated time, bytes and flops of one stage run.

    ``position`` is the ``(node index, stage)`` of the stage-graph node
    attempt it meters (``None`` for a meter of no node): while the meter
    is active it is where this thread stands in the execution, which
    :func:`repro.trace.emit.current_stage` reports.

    Thread-safe: a stage's block tasks may report from several lanes at
    once.  ``take_step_*`` methods drain the per-step counters
    (the stage runner calls them after each plan step to build traces and
    charge per-step compute time).
    """

    def __init__(self, position: tuple[int, int] | None = None) -> None:
        self.position = position
        #: Straggler slowdown of this attempt (a chaos run's ``straggler``
        #: clause sets it); the scheduler scales the metered time by it.
        self.slowdown_factor = 1.0
        self._lock = threading.Lock()
        self.network_seconds = 0.0
        self.compute_seconds = 0.0
        self.overhead_seconds = 0.0
        self.network_bytes = 0
        self._step_bytes = 0
        # flop counters keyed by the reporting EngineStats object, so the
        # scheduler can map them back to worker indices.
        self._step_flops: dict[int, tuple[object, int, int]] = {}

    # -- charges (called by the clock and the engines) ----------------------

    def add_network(self, nbytes: int, seconds: float) -> None:
        with self._lock:
            self.network_bytes += nbytes
            self._step_bytes += nbytes
            self.network_seconds += seconds

    def add_compute(self, seconds: float) -> None:
        with self._lock:
            self.compute_seconds += seconds

    def add_overhead(self, seconds: float) -> None:
        with self._lock:
            self.overhead_seconds += seconds

    def record_flops(self, stats: object, flops: int, sparse: bool) -> None:
        """An engine reports block flops; ``stats`` identifies the engine."""
        with self._lock:
            owner, dense_total, sparse_total = self._step_flops.get(
                id(stats), (stats, 0, 0)
            )
            if sparse:
                sparse_total += flops
            else:
                dense_total += flops
            self._step_flops[id(stats)] = (owner, dense_total, sparse_total)

    # -- per-step draining (called by the stage runner) ---------------------

    def take_step_flops(self) -> list[tuple[object, int, int]]:
        """``(stats, dense, sparse)`` recorded since the last take."""
        with self._lock:
            out = list(self._step_flops.values())
            self._step_flops.clear()
        return out

    def take_step_bytes(self) -> int:
        """Network bytes charged since the last take."""
        with self._lock:
            out = self._step_bytes
            self._step_bytes = 0
        return out

    # -- totals -------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return self.network_seconds + self.compute_seconds + self.overhead_seconds

    def breakdown(self) -> tuple[float, float, float]:
        """``(network, compute, overhead)`` seconds accumulated so far."""
        with self._lock:
            return (self.network_seconds, self.compute_seconds, self.overhead_seconds)
