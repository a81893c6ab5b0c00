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
    """Thread-safe record of the fault/recovery events of one execution
    (what :func:`repro.trace.emit.emit` appends to on a chaos run)."""

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


def summarise_recovery(log: RecoveryLog, blocks_lost: int) -> dict:
    """The ``ExecutionResult.recovery`` summary of one plan execution.

    Every number is counted off this execution's own ``log`` but
    ``blocks_lost``, the execution's ResourceManager counter (a lost block
    emits no event of its own).  The chaos engine may span many executions
    of one run, whose summaries are then summed.
    """
    events = log.events()

    def of(kind: str) -> list[dict]:
        return [event for event in events if event["event"] == kind]

    recovered, checkpoints = of("recovered"), of("checkpoint")
    return {
        "events": events,
        "injected": len(of("inject")),
        "retries": len(of("retry")),
        "speculations": len(of("speculation")),
        "blocks_lost": blocks_lost,
        "blocks_recovered": len(recovered),
        "steps_recomputed": sum(event["steps"] for event in recovered),
        "bytes_recomputed": sum(event["bytes"] for event in recovered),
        "checkpoints": len(checkpoints),
        "checkpoint_bytes": sum(event["bytes"] for event in checkpoints),
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
