"""Host concurrency: one lazily started, host-sized thread pool.

The paper's local engine (Section 5.3, Figure 4) is a task queue feeding a
thread pool that lives as long as the worker.  Here one :class:`LanePool`
lives as long as its :class:`~repro.rdd.context.ClusterContext` and carries
both kinds of host concurrency: the engines' block tasks (:meth:`map`) and
the scheduler's stage-graph nodes (:meth:`submit`).

Its width is a property of the *host* -- the CPUs this process may run on --
never of the simulated cluster and never a setting.  ``num_workers``,
``threads_per_worker`` and ``max_concurrent_stages`` stay what they are in
the paper's model (slots, the ``L`` of Equation 3 and of the clock, the
in-flight bounds callers pass as ``width`` or enforce themselves); host
concurrency is the smaller of such a bound and the pool's width, so a
one-CPU process runs every block task and every stage node on the calling
thread and never starts a pool thread.  Simulated seconds come from meters
and the dependency structure, bytes from the ledger, results from
per-block folds in fixed ``k`` order, so nothing observable depends on
which thread ran what.

Every submission runs under a copy of the submitting thread's
:mod:`contextvars` context.  Context variables do not propagate into pool
threads by default, so without the copy a block task would lose the
submitting stage's entire execution context: its
:class:`~repro.runtime.metering.StageMeter`, the
:class:`~repro.rdd.ledger.CommunicationLedger` scope stack and the tracer's
stage position.  A helper lane's copy spans several tasks, and the caller's
own lane runs in the caller's context itself; both are sound because every
context variable a task sets is ``with``-scoped.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence

from repro.errors import ClusterError


class LanePool:
    """A thread pool that starts no thread until something fans out (the
    executor starts its threads on demand, at most ``width`` of them), is
    shut down by :meth:`close`, and dies with its owner if nobody closes it
    (so an un-closed session that is simply dropped leaves nothing behind).

    ``width`` defaults to how many threads can run at once on this host:
    the CPUs this process is allowed on (a pinned process gets a narrower
    pool), else the machine's.  No caller passes one but tests, which
    size a pool to exercise a host they do not run on.
    """

    def __init__(self, width: int | None = None) -> None:
        if width is None:
            affinity = getattr(os, "sched_getaffinity", None)
            width = len(affinity(0)) if affinity else os.cpu_count() or 1
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.closed = False
        self._executor = ThreadPoolExecutor(self.width, "repro-lane")
        weakref.finalize(self, self._executor.shutdown, wait=False)

    def submit(self, fn: Callable, *args, inline: bool = False) -> Future:
        """``fn(*args)`` under a copy of the caller's context: on a pool
        thread, or -- ``inline`` -- right here, outcome (any
        ``BaseException`` included) delivered through the future alike."""
        if self.closed:
            raise ClusterError("this cluster context is closed")
        run = contextvars.copy_context().run
        if not inline:
            return self._executor.submit(run, fn, *args)
        future: Future = Future()
        try:
            future.set_result(run(fn, *args))
        except BaseException as error:
            future.set_exception(error)
        return future

    def map(self, runner: Callable, tasks: Sequence, width: int) -> list:
        """``[runner(task) for task in tasks]`` with at most ``width`` tasks
        in flight, in caller-runs lanes.

        ``min(width, self.width, len(tasks))`` lanes pull task indices from
        one shared ticket counter: more lanes than the host has CPUs could
        overlap nothing, only hand the GIL back and forth.  The calling
        thread is lane 0; the others are submitted to the pool, so on a
        one-CPU host every task runs right here.  When the caller's lane
        runs dry it cancels every helper that has not started and waits
        only for those that have, so small tasks the caller finishes before
        a helper would wake never leave this thread.

        Invariant: **tasks are leaves** -- a runner never submits to the
        pool.  That is what makes one shared pool deadlock-free at any
        width >= 1: a stage node occupying a pool thread never waits for a
        helper that cannot start (it cancels it), and a started helper only
        runs leaves, so it always finishes.

        Failure: once a task raises, no lane takes a new ticket; tasks
        already started finish before this returns (allocate/release pairs
        stay balanced); the error of the lowest task index is raised --
        tickets are handed out in index order, so that is the lowest
        failing index overall.  A ``BaseException`` such as
        ``KeyboardInterrupt`` raised by a task takes the same path.
        """
        if self.closed:
            raise ClusterError("this cluster context is closed")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        results: list = [None] * len(tasks)
        errors: dict[int, BaseException] = {}
        tickets = itertools.count()  # next() is atomic under the GIL

        def lane() -> None:
            while not errors:
                index = next(tickets)
                if index >= len(tasks):
                    return
                try:
                    results[index] = runner(tasks[index])
                except BaseException as error:
                    errors[index] = error

        helpers = [self.submit(lane) for _ in range(min(width, self.width, len(tasks)) - 1)]
        lane()
        for helper in helpers:
            if not helper.cancel():
                helper.result()
        if errors:
            raise errors[min(errors)]
        return results

    def close(self) -> None:
        """Refuse further work and join the pool's threads.  Idempotent."""
        self.closed = True
        self._executor.shutdown(wait=True)
