"""Chaos-run reporting: the event log and the clean-vs-faulted report.

Events are emitted from concurrent scheduler threads, so their arrival
order is host-scheduling noise.  Everything surfaced to a report is
canonically sorted (by the JSON encoding of the event), which is what lets
two chaos runs with the same seed produce *byte-identical* ``--format
json`` reports -- the determinism gate CI enforces.
"""

from __future__ import annotations

import json
import threading


class RecoveryLog:
    """Thread-safe collector of fault/recovery events of one execution."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def record(self, event: dict) -> None:
        with self._lock:
            self._events.append(dict(event))

    def events(self) -> list[dict]:
        """All events, canonically sorted (thread-order independent)."""
        with self._lock:
            events = list(self._events)
        return sorted(events, key=lambda e: json.dumps(e, sort_keys=True))

    def count(self, event_kind: str) -> int:
        with self._lock:
            return sum(1 for e in self._events if e.get("event") == event_kind)


def summarise_recovery(log, resources, checkpoints=None) -> dict:
    """The ``ExecutionResult.recovery`` summary of one plan execution.

    Every counter is this execution's own (``log`` and the
    :class:`~repro.runtime.resources.ResourceManager` ``resources`` are per
    execution), the way ``comm_bytes`` is a ledger delta: the chaos engine
    may span many executions of one run, whose summaries are then summed.
    """
    return {
        "events": log.events(),
        "injected": log.count("inject"),
        "retries": log.count("retry"),
        "speculations": log.count("speculation"),
        "blocks_lost": resources.blocks_lost,
        "blocks_recovered": resources.blocks_recovered,
        "steps_recomputed": resources.steps_recomputed,
        "bytes_recomputed": resources.bytes_recomputed,
        "checkpoints": checkpoints.count if checkpoints is not None else 0,
        "checkpoint_bytes": checkpoints.bytes_written if checkpoints is not None else 0,
    }


def build_chaos_report(
    app: str,
    seed: int,
    faults: str,
    clean,
    faulted,
    results_match: bool,
) -> dict:
    """Clean-vs-faulted comparison (JSON-ready, no wall-clock values --
    every field is a deterministic function of seed, spec and plan)."""
    recovery = faulted.recovery or {}
    clean_seconds = clean.simulated_seconds
    faulted_seconds = faulted.simulated_seconds
    return {
        "app": app,
        "seed": seed,
        "faults": faults,
        "clean": {
            "simulated_seconds": clean_seconds,
            "comm_bytes": clean.comm_bytes,
            "num_stages": clean.num_stages,
        },
        "faulted": {
            "simulated_seconds": faulted_seconds,
            "comm_bytes": faulted.comm_bytes,
            "num_stages": faulted.num_stages,
        },
        "overhead": {
            "extra_seconds": faulted_seconds - clean_seconds,
            "extra_comm_bytes": faulted.comm_bytes - clean.comm_bytes,
            "slowdown": (faulted_seconds / clean_seconds)
            if clean_seconds > 0
            else 1.0,
        },
        "recovery": recovery,
        "results_match": results_match,
    }


def format_chaos_report(report: dict) -> str:
    """Human-readable rendering of :func:`build_chaos_report`'s output."""
    clean = report["clean"]
    faulted = report["faulted"]
    overhead = report["overhead"]
    recovery = report["recovery"]
    lines = [
        f"chaos report: {report['app']} "
        f"(seed {report['seed']}, faults {report['faults']!r})",
        f"  clean run:   {clean['simulated_seconds']:.3f} simulated s, "
        f"{clean['comm_bytes']:,} bytes moved",
        f"  faulted run: {faulted['simulated_seconds']:.3f} simulated s, "
        f"{faulted['comm_bytes']:,} bytes moved",
        f"  overhead:    +{overhead['extra_seconds']:.3f} s "
        f"({overhead['slowdown']:.2f}x), "
        f"+{overhead['extra_comm_bytes']:,} bytes",
        f"  injected {recovery.get('injected', 0)} fault(s): "
        f"{recovery.get('retries', 0)} retried, "
        f"{recovery.get('blocks_lost', 0)} block(s) lost, "
        f"{recovery.get('blocks_recovered', 0)} recovered "
        f"({recovery.get('steps_recomputed', 0)} step(s), "
        f"{recovery.get('bytes_recomputed', 0):,} bytes recomputed)",
    ]
    if recovery.get("speculations", 0):
        lines.append(f"  speculative copies won: {recovery['speculations']}")
    if recovery.get("checkpoints", 0):
        lines.append(
            f"  checkpoints: {recovery['checkpoints']} "
            f"({recovery['checkpoint_bytes']:,} bytes)"
        )
    lines.append(
        "  results match clean run"
        if report["results_match"]
        else "  RESULTS DIVERGE from clean run"
    )
    for event in recovery.get("events", []):
        lines.append(f"  event: {json.dumps(event, sort_keys=True)}")
    return "\n".join(lines)
