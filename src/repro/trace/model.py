"""The span/event model: what a traced execution is made of.

A **span** is an interval with two clocks.  Wall clock timestamps
(``perf_counter`` seconds) describe what the host physically did and are
never exported to deterministic formats; *simulated* clock timestamps
describe where the interval sits on the cluster's dependency-bound
schedule and are assigned after the run from the scheduler's
:class:`~repro.runtime.scheduler.StageTiming` (the same numbers the
simulated clock charges), which is what makes a Chrome export of the same
seeded run byte-identical.

The span hierarchy mirrors the execution model::

    plan                      one per traced execution
    +- stage                  one per stage-graph node *attempt*
       +- step                one per plan step executed in the node
          +- block-task       one per engine block task (wall clock only)

**Point events** are instants: a metered transfer, a cache transition, an
injected fault, a retry.  They carry whatever attributes their reporting
site knows (bytes, link, ledger scope, stage-graph node) -- the
reconciliation pass in :mod:`repro.trace.reconcile` cross-checks those
attributions against the ledger's own books.
"""

from __future__ import annotations

import dataclasses

#: Span kinds, outermost first.
SPAN_KINDS = ("plan", "stage", "step", "block-task")

#: Point-event kinds.
EVENT_KINDS = (
    "transfer",  # one CommunicationLedger record (shuffle or broadcast)
    "cache",  # BlockCache transition: pin / hit / spill / refill
    "fault",  # ChaosEngine injection: crash / flaky / lostblock / straggler
    "recovery",  # lineage recovery cone replay
    "retry",  # scheduler re-ran a node after a retryable failure
    "speculation",  # a speculative copy beat a straggler
)


@dataclasses.dataclass
class Span:
    """One interval of a traced execution."""

    span_id: int
    parent_id: int | None
    kind: str  # one of SPAN_KINDS
    name: str
    wall_start: float  # perf_counter seconds (host-dependent; never exported)
    wall_end: float | None = None
    sim_start: float | None = None  # simulated seconds (assigned post-run)
    sim_end: float | None = None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def sim_seconds(self) -> float:
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start

    def sort_key(self) -> tuple:
        """Canonical, host-schedule-independent ordering key.

        Wall times are deliberately excluded: two runs of the same seeded
        execution must sort their spans identically even though their
        threads interleaved differently.
        """
        return (
            self.sim_start if self.sim_start is not None else float("inf"),
            SPAN_KINDS.index(self.kind) if self.kind in SPAN_KINDS else len(SPAN_KINDS),
            self.attrs.get("node", -1),
            self.attrs.get("attempt", 0),
            self.attrs.get("plan_index", -1),
            self.name,
        )


@dataclasses.dataclass(frozen=True)
class PointEvent:
    """One instant of a traced execution."""

    kind: str  # one of EVENT_KINDS
    name: str  # e.g. "shuffle", "spill", "crash"
    wall_time: float
    #: (stage-graph node, stage number) the emitting thread was executing
    #: for, or ``None`` for driver-side events.
    stage: tuple[int, int] | None = None
    attrs: dict = dataclasses.field(default_factory=dict)

    def sort_key(self) -> tuple:
        """Canonical ordering key (wall-clock independent)."""
        return (
            EVENT_KINDS.index(self.kind) if self.kind in EVENT_KINDS else len(EVENT_KINDS),
            self.name,
            self.stage if self.stage is not None else (-1, -1),
            sorted(
                (key, repr(value)) for key, value in self.attrs.items()
            ),
        )
