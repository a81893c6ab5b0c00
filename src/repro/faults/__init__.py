"""Deterministic fault injection, lineage recovery, straggler mitigation.

The paper's DMac prototype runs on Spark and silently inherits RDD lineage
fault tolerance; this package gives the in-process substrate the same
properties, *measurably*: a seeded :class:`ChaosEngine` injects worker
crashes, lost blocks, transient transfer failures and straggler slowdowns
at named points, the runtime recovers (retry with capped backoff, lineage
recomputation, periodic checkpoints, speculative re-execution), and every
recovery cost is charged to the simulated clock and the communication
ledger so "what does a failure cost?" is a reproducible number.

The recomputation itself is the runtime's ``ResourceManager._rebuild``,
the one path a lost block and a spilled cache pin share; this package
gives it its cones (:class:`LineageTracker`) and fault collaborators.

Entry points: ``repro chaos <app> --seed S --faults SPEC`` on the command
line, or ``session.run(program, chaos=ChaosEngine(seed, spec))`` in code.
"""

from repro._exports import export_table

_EXPORTS = {
    "ChaosEngine": "repro.faults.chaos",
    "LineageTracker": "repro.faults.lineage",
    "CheckpointStore": "repro.faults.recovery",
    "RecoveryLog": "repro.faults.report",
    "build_chaos_report": "repro.faults.report",
    "format_chaos_report": "repro.faults.report",
    "summarise_recovery": "repro.faults.report",
    "FaultClause": "repro.faults.spec",
    "parse_fault_spec": "repro.faults.spec",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
