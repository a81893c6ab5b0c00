"""The TraceCollector: spans and events in, metrics and exports out.

One collector instance traces exactly one execution (the executor installs
it via :func:`repro.trace.emit.install_tracer` for the duration of the
run).  It is thread-safe -- spans and events arrive concurrently from
stage nodes and block-task lanes on the cluster's thread pool -- and it
never *orders* anything at collection time: canonical, host-independent
ordering is applied on read (:meth:`spans`, :meth:`events`), which is what
keeps every export of a seeded run byte-identical.

After the scheduler finishes, the executor calls :meth:`apply_schedule` to
place the stage and step spans on the simulated timeline (the same
:class:`~repro.runtime.scheduler.StageTiming` numbers the clock charges)
and :meth:`attach_ledger_window` / :meth:`attach_clock_delta` to stamp the
raw material the reconciliation pass audits.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from typing import Iterator

from repro.trace.model import PointEvent, Span

#: The innermost open span of the current thread/context (parent linkage).
_CURRENT_SPAN: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_trace_current_span", default=None
)


class MetricsRegistry:
    """Counters, gauges and histograms aggregated from one trace.

    Plain dictionaries with sorted JSON rendering; values are aggregated
    from canonically ordered spans/events so identical seeded runs yield
    identical registries.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}

    def count(self, name: str, value: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.setdefault(
            name, {"count": 0, "sum": 0.0, "min": None, "max": None}
        )
        hist["count"] += 1
        hist["sum"] += value
        hist["min"] = value if hist["min"] is None else min(hist["min"], value)
        hist["max"] = value if hist["max"] is None else max(hist["max"], value)

    def to_json_dict(self) -> dict:
        histograms = {}
        for name, hist in sorted(self.histograms.items()):
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            histograms[name] = {**hist, "mean": mean}
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": histograms,
        }


class TraceCollector:
    """Collects one execution's spans, events and reconciliation inputs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._events: list[PointEvent] = []
        self._next_id = 0
        self._node_attempts: dict[int, int] = {}
        #: Reconciliation inputs stamped by the executor after the run.
        self.meta: dict = {}

    # -- recording (any thread) ----------------------------------------------

    def begin_span(self, kind: str, name: str, **attrs) -> Span:
        """Open a span; the innermost open span of this context becomes its
        parent.  Stage spans are numbered with a per-node attempt count."""
        parent = _CURRENT_SPAN.get()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if kind == "stage" and "node" in attrs:
                attempt = self._node_attempts.get(attrs["node"], 0) + 1
                self._node_attempts[attrs["node"]] = attempt
                attrs = {**attrs, "attempt": attempt}
            span = Span(
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                kind=kind,
                name=name,
                wall_start=time.perf_counter(),
                attrs=attrs,
            )
            self._spans.append(span)
        span._token = _CURRENT_SPAN.set(span)  # type: ignore[attr-defined]
        return span

    def end_span(self, span: Span, **attrs) -> None:
        """Close a span (must be balanced with :meth:`begin_span` in the
        same context, which every instrumented site guarantees)."""
        span.wall_end = time.perf_counter()
        if attrs:
            with self._lock:
                span.attrs.update(attrs)
        token = getattr(span, "_token", None)
        if token is not None:
            _CURRENT_SPAN.reset(token)
            del span._token  # type: ignore[attr-defined]

    @contextlib.contextmanager
    def span(self, kind: str, name: str, **attrs) -> Iterator[Span]:
        opened = self.begin_span(kind, name, **attrs)
        try:
            yield opened
        finally:
            self.end_span(opened)

    def event(
        self,
        kind: str,
        name: str,
        stage: tuple[int, int] | None = None,
        **attrs,
    ) -> None:
        """Record a point event (``stage`` is the emitting site's
        stage-graph position, usually :func:`repro.trace.emit.current_stage`)."""
        record = PointEvent(
            kind=kind,
            name=name,
            wall_time=time.perf_counter(),
            stage=stage,
            attrs=attrs,
        )
        with self._lock:
            self._events.append(record)

    # -- post-run placement (executor) ---------------------------------------

    def apply_schedule(self, timings, critical_path: tuple[int, ...]) -> None:
        """Place stage and step spans on the simulated timeline.

        ``timings`` is the scheduler report's per-node ``StageTiming`` list.
        Only each node's *final* attempt is placed (the scheduler folds
        failed attempts' cost into the node's duration); earlier attempts
        keep ``sim_start is None`` and stay off deterministic exports.
        """
        by_node = {timing.node: timing for timing in timings}
        with self._lock:
            final_attempt = dict(self._node_attempts)
            placed: dict[int, Span] = {}
            for span in self._spans:
                if span.kind != "stage":
                    continue
                node = span.attrs.get("node")
                timing = by_node.get(node)
                if timing is None or span.attrs.get("attempt") != final_attempt.get(node):
                    continue
                span.sim_start = timing.start_seconds
                span.sim_end = timing.finish_seconds
                span.attrs.update(
                    network_seconds=timing.duration.network_seconds,
                    compute_seconds=timing.duration.compute_seconds,
                    overhead_seconds=timing.duration.overhead_seconds,
                    on_critical_path=timing.node in critical_path,
                )
                placed[node] = span
            for span in self._spans:
                if span.kind != "step":
                    continue
                stage_span = placed.get(span.attrs.get("node"))
                if stage_span is None or span.parent_id != stage_span.span_id:
                    continue  # a failed attempt's step: leave off the timeline
                offset = span.attrs.get("sim_offset", 0.0)
                duration = span.attrs.get("sim_duration", 0.0)
                span.sim_start = stage_span.sim_start + offset
                span.sim_end = span.sim_start + duration
            for span in self._spans:
                if span.kind == "plan":
                    span.sim_start = 0.0
                    span.sim_end = max(
                        (t.finish_seconds for t in timings), default=0.0
                    )
        self.meta["critical_path"] = tuple(critical_path)

    def attach_ledger_window(self, records: list) -> None:
        """The ledger's ``TransferRecord`` list for exactly this run."""
        self.meta["ledger_records"] = list(records)

    def attach_clock_delta(self, network: float, compute: float, overhead: float) -> None:
        """How much this run advanced the global simulated clock."""
        self.meta["clock_delta"] = (network, compute, overhead)

    def attach_elapsed(self, breakdown) -> None:
        """The scheduler's committed critical-path breakdown."""
        self.meta["elapsed"] = (
            breakdown.network_seconds,
            breakdown.compute_seconds,
            breakdown.overhead_seconds,
        )

    # -- reading (canonical order) -------------------------------------------

    def spans(self, kind: str | None = None) -> list[Span]:
        with self._lock:
            spans = list(self._spans)
        if kind is not None:
            spans = [span for span in spans if span.kind == kind]
        return sorted(spans, key=Span.sort_key)

    def events(self, kind: str | None = None) -> list[PointEvent]:
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [event for event in events if event.kind == kind]
        return sorted(events, key=PointEvent.sort_key)

    def final_stage_spans(self) -> list[Span]:
        """Each node's placed (final-attempt) stage span, by node index."""
        spans = [s for s in self.spans("stage") if s.sim_start is not None]
        return sorted(spans, key=lambda s: s.attrs["node"])

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """Aggregate the trace into a metrics registry (deterministic for
        seeded runs: aggregation walks canonically ordered spans/events)."""
        registry = MetricsRegistry()
        for event in self.events("transfer"):
            nbytes = event.attrs.get("nbytes", 0)
            registry.count("bytes.total", nbytes)
            registry.count(f"bytes.kind.{event.name}", nbytes)
            link = event.attrs.get("link")
            if link is not None:
                registry.count(f"bytes.link.{link[0]}->{link[1]}", nbytes)
            else:
                registry.count("bytes.unattributed", nbytes)
            registry.count("transfers", 1)
            registry.observe("transfer_bytes", nbytes)
        cache_counts = {"pin": 0, "hit": 0, "spill": 0, "refill": 0}
        for event in self.events("cache"):
            cache_counts[event.name] = cache_counts.get(event.name, 0) + 1
            registry.count(f"cache.{event.name}", 1)
        lookups = cache_counts["hit"] + cache_counts["refill"]
        if lookups:
            registry.gauge("cache.hit_rate", cache_counts["hit"] / lookups)
        for kind, counter in (
            ("fault", "faults.injected"),
            ("retry", "retries"),
            ("speculation", "speculations"),
            ("recovery", "recovery.cones"),
        ):
            events = self.events(kind)
            if events:
                registry.count(counter, len(events))
        for span in self.final_stage_spans():
            registry.observe("stage.sim_seconds", span.sim_seconds)
            registry.count(f"stage.sim_seconds.stage-{span.attrs['stage']}", span.sim_seconds)
        for span in self.spans("step"):
            if span.sim_start is None:
                continue
            registry.observe("step.sim_seconds", span.attrs.get("sim_duration", 0.0))
            registry.observe("step.bytes", span.attrs.get("bytes", 0))
            registry.observe("step.flops", span.attrs.get("flops", 0))
        block_tasks = self.spans("block-task")
        if block_tasks:
            registry.count("block_tasks", len(block_tasks))
        return registry
