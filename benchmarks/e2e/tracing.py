"""Benchmark-side spans around the calls into each layer.

Spans are recorded from the benchmark's own files (no span lives inside
``src/``): one around each public per-layer function a job goes through,
and -- via :class:`TimedBackend` -- one around each call the runtime
makes into its execution backend.  They are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time

#: Backend methods that get a span; everything else (metering surface,
#: cache accounting, fault hooks) is delegated untimed.
BACKEND_SPANS = (
    "materialise_source",
    "extended",
    "matmul",
    "cellwise",
    "fused_cellwise",
    "scalar_op",
    "unary",
    "row_agg",
    "aggregate",
    "release",
)


class Tracer:
    """In-memory span log: ``(id, parent, job, name, start, end)``.

    The parent is carried in a context variable; the stage scheduler
    copies the dispatching thread's context into its pool threads, so a
    backend span opened on a stage thread is parented to the
    ``runtime.execute`` span that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.job = 0
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_span_parent", default=0
        )

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._parent.get()
        token = self._parent.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._parent.reset(token)
            self.spans.append((span_id, parent, self.job, name, start, end))

    def job_spans(self, job: int) -> list[tuple[int, int, int, str, float, float]]:
        return [span for span in self.spans if span[2] == job]


class TimedBackend:
    """Delegating wrapper over the runtime ``Backend`` protocol that
    spans the kernel-facing calls and passes everything else through."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name not in BACKEND_SPANS:
            return attr

        def timed(*args, **kwargs):
            with self._tracer.span(f"backend.{name}"):
                return attr(*args, **kwargs)

        return timed


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``
    intervals (stages run on pool threads, so backend spans overlap)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def self_seconds(spans: list[tuple], span: tuple) -> float:
    """A span's duration minus the part its child spans cover."""
    children = [(s[4], s[5]) for s in spans if s[1] == span[0]]
    return (span[5] - span[4]) - union_seconds(children)
