"""Simulated wall clock for the in-process cluster.

The paper reports execution-time series measured on a physical 4--20 node
cluster.  This reproduction runs every byte and flop of the real computation
in one process, so wall-clock time would reflect the host laptop, not the
cluster.  The clock converts the *measured* traffic (from the communication
ledger) and the *measured* flops (from the per-worker engines) into seconds
under a simple linear hardware model:

* network time  = bytes / network_bandwidth            (serialised per stage)
* compute time  = max over workers of
                  (dense flops / dense rate + sparse flops / sparse rate) / L
* stage overhead = fixed scheduling latency per stage

The DMac-vs-baseline ratios the paper reports depend on bytes and flops,
which are measured; the hardware constants only scale absolute seconds.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.config import ClockConfig
from repro.runtime.metering import active_meter


@dataclasses.dataclass
class TimeBreakdown:
    """Accumulated simulated time, split by cause."""

    network_seconds: float = 0.0
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.network_seconds + self.compute_seconds + self.overhead_seconds

    @property
    def communication_share(self) -> float:
        """Fraction of total time spent on the network (paper Section 6.2:
        ~44 % for SystemML-S vs ~6 % for DMac on GNMF)."""
        total = self.total_seconds
        return self.network_seconds / total if total > 0 else 0.0


class SimulatedClock:
    """Accumulates simulated seconds from metered bytes and flops.

    Thread-safe.  When a :class:`~repro.runtime.metering.StageMeter` is
    installed on the calling thread (the concurrent stage scheduler runs
    each stage under one), charges are redirected to that meter instead of
    the global total: concurrently executing stages must not each add their
    full duration to a single serial timeline.  The scheduler later commits
    the critical-path total through :meth:`advance`.
    """

    def __init__(self, config: ClockConfig | None = None) -> None:
        self.config = config or ClockConfig()
        self._lock = threading.Lock()
        self._time = TimeBreakdown()
        self._windows: list[TimeBreakdown] = []

    def _charge(self, network: float = 0.0, compute: float = 0.0,
                overhead: float = 0.0) -> None:
        """Add to the global total and every open window.  Caller holds
        the lock."""
        self._time.network_seconds += network
        self._time.compute_seconds += compute
        self._time.overhead_seconds += overhead
        for window in self._windows:
            window.network_seconds += network
            window.compute_seconds += compute
            window.overhead_seconds += overhead

    def begin_window(self) -> TimeBreakdown:
        """Open an exact measurement window.

        Every subsequent charge is added to the returned breakdown as well
        as the global total.  Because the window starts from zero and sees
        the very same float additions, its totals are *bitwise* equal to
        the sum of the charges in the window -- unlike ``after - before``
        subtraction on the accumulated totals, which drifts by ulps once
        the clock carries earlier runs (e.g. prior segments of a staged
        program).  The trace reconciliation depends on this exactness.
        """
        window = TimeBreakdown()
        with self._lock:
            self._windows.append(window)
        return window

    def end_window(self, window: TimeBreakdown) -> TimeBreakdown:
        """Close a window opened by :meth:`begin_window` and return it."""
        with self._lock:
            self._windows.remove(window)
        return window

    def advance_network(self, nbytes: int) -> None:
        """Charge a cross-worker transfer of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        seconds = nbytes / self.config.network_bytes_per_sec
        meter = active_meter()
        if meter is not None:
            meter.add_network(nbytes, seconds)
            return
        with self._lock:
            self._charge(network=seconds)

    def advance_compute(
        self,
        worker_dense_flops: dict[int, int],
        worker_sparse_flops: dict[int, int],
        threads_per_worker: int,
    ) -> None:
        """Charge one parallel compute phase.

        The phase lasts as long as its slowest worker; inside a worker, the
        flops are spread over ``threads_per_worker`` local threads.
        """
        workers = set(worker_dense_flops) | set(worker_sparse_flops)
        if not workers:
            return
        slowest = max(
            (
                worker_dense_flops.get(w, 0) / self.config.dense_flops_per_sec
                + worker_sparse_flops.get(w, 0) / self.config.sparse_flops_per_sec
            )
            / threads_per_worker
            for w in workers
        )
        meter = active_meter()
        if meter is not None:
            meter.add_compute(slowest)
            return
        with self._lock:
            self._charge(compute=slowest)

    def advance_disk(self, nbytes: int) -> None:
        """Charge a disk write/read of ``nbytes`` (checkpoint persistence).

        Disk time is booked under the overhead bucket: it is neither
        cross-worker network traffic nor compute, and the paper's time
        split has no separate disk series.
        """
        if nbytes < 0:
            raise ValueError(f"negative disk transfer size: {nbytes}")
        seconds = nbytes / self.config.disk_bytes_per_sec
        meter = active_meter()
        if meter is not None:
            meter.add_overhead(seconds)
            return
        with self._lock:
            self._charge(overhead=seconds)

    def advance_stage_overhead(self, stages: int = 1) -> None:
        """Charge fixed scheduling latency for ``stages`` stage launches."""
        seconds = stages * self.config.latency_per_stage_sec
        meter = active_meter()
        if meter is not None:
            meter.add_overhead(seconds)
            return
        with self._lock:
            self._charge(overhead=seconds)

    def advance(self, breakdown: TimeBreakdown) -> None:
        """Commit an already-split duration (the scheduler's critical path)
        straight to the global total, bypassing any meter."""
        with self._lock:
            self._charge(
                network=breakdown.network_seconds,
                compute=breakdown.compute_seconds,
                overhead=breakdown.overhead_seconds,
            )

    @property
    def elapsed(self) -> TimeBreakdown:
        with self._lock:
            return dataclasses.replace(self._time)

    @property
    def elapsed_seconds(self) -> float:
        with self._lock:
            return self._time.total_seconds
