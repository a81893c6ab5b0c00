"""Communication ledger: every byte that crosses worker boundaries.

The paper's headline evaluation metric (Figure 6b and the 44 %-vs-6 %
communication-share analysis of Section 6.2) is the amount of data moved
through the cluster.  The ledger is the single place this is metered: the
shuffle service and broadcast facility report to it, and nothing else in the
system is allowed to move data between workers.

Entries are tagged with a *scope* (e.g. the current plan stage and operator)
so benchmarks can break communication down the way the paper's figures do.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import threading
from collections import defaultdict
from typing import Iterator

from repro.trace.emit import active_tracer, current_stage

#: The kinds of cross-worker transfer the substrate can perform
#: ("rebalance" is the elastic pool shipping live blocks to a joiner).
TRANSFER_KINDS = ("shuffle", "broadcast", "rebalance")

#: Scope stacks per ledger instance, keyed by ``id(ledger)``.  A
#: :mod:`contextvars` variable -- not ``threading.local`` -- so that when
#: :meth:`repro.localexec.lanes.LanePool.submit` copies the submitting
#: stage's context into its helper lanes, block tasks inherit the stage's
#: scope and tag their transfers correctly.  (The old thread-local stack
#: made pool threads record under an *empty* scope; the trace
#: reconciliation pass in :mod:`repro.trace.reconcile` catches exactly
#: that class of misattribution.)  The stack is an immutable tuple: each
#: ``scope()`` entry sets a new value and resets its token on exit, so
#: copied contexts snapshot the stack instead of sharing a mutable list.
_SCOPES: contextvars.ContextVar[dict[int, tuple[str, ...]]] = contextvars.ContextVar(
    "repro_ledger_scopes", default={}
)


@dataclasses.dataclass(frozen=True)
class TransferRecord:
    """One metered cross-worker transfer."""

    kind: str  # "shuffle" or "broadcast"
    nbytes: int
    scope: str  # e.g. "stage-2/partition(W)"
    #: The (source worker, target worker) link the bytes crossed, when the
    #: reporting service knows it (the shuffle service does); ``None`` for
    #: aggregate records such as broadcasts.
    link: tuple[int, int] | None = None


class CommunicationLedger:
    """Thread-safe accumulator of cross-worker traffic.

    The record list is guarded by a lock; the scope stack is a *context
    variable* (the same pattern as ``StageMeter`` in
    :mod:`repro.runtime.metering`), so concurrently executing stages --
    each under its own context copy -- tag their transfers independently,
    and block-task lanes that run under a copy of the stage's context
    inherit the stage's scope.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[TransferRecord] = []
        # Running sums over ``_records``, kept under the lock: the executor
        # snapshots the total twice per run, and a long-lived service
        # session's ledger only grows.
        self._total_bytes = 0
        self._unattributed_bytes = 0

    # -- scoping ------------------------------------------------------------

    def _scope_stack(self) -> tuple[str, ...]:
        return _SCOPES.get().get(id(self), ())

    @contextlib.contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Tag all transfers recorded inside the block with ``label``
        (nested scopes join with ``/``).  Scopes are per-context: they
        follow ``contextvars`` copies into pool threads."""
        stacks = dict(_SCOPES.get())
        stacks[id(self)] = stacks.get(id(self), ()) + (label,)
        token = _SCOPES.set(stacks)
        try:
            yield
        finally:
            _SCOPES.reset(token)

    def current_scope(self) -> str:
        return "/".join(self._scope_stack())

    # -- recording ----------------------------------------------------------

    def record(
        self, kind: str, nbytes: int, link: tuple[int, int] | None = None
    ) -> None:
        """Meter one transfer of ``nbytes`` under the current scope,
        optionally attributed to a (source, target) worker link."""
        if kind not in TRANSFER_KINDS:
            raise ValueError(f"unknown transfer kind {kind!r}")
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if nbytes == 0:
            return
        scope = "/".join(self._scope_stack())
        with self._lock:
            self._records.append(TransferRecord(kind, nbytes, scope, link))
            self._total_bytes += nbytes
            if link is None:
                self._unattributed_bytes += nbytes
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "transfer",
                kind,
                stage=current_stage(),
                nbytes=nbytes,
                link=link,
                scope=scope,
            )

    # -- reporting ----------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def bytes_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            for record in self._records:
                out[record.kind] += record.nbytes
        return dict(out)

    def bytes_by_link(
        self, include_unattributed: bool = False
    ) -> dict[tuple[int, int] | None, int]:
        """Bytes per (source worker, target worker) pair, for records that
        carry link attribution (shuffles do; broadcasts do not).

        With ``include_unattributed=True`` link-less records are returned
        under an explicit ``None`` bucket, so the per-link sums add up to
        :attr:`total_bytes` instead of silently dropping broadcast bytes.
        """
        out: dict[tuple[int, int] | None, int] = defaultdict(int)
        with self._lock:
            for record in self._records:
                if record.link is not None:
                    out[record.link] += record.nbytes
                elif include_unattributed:
                    out[None] += record.nbytes
        return dict(out)

    @property
    def unattributed_bytes(self) -> int:
        """Bytes of records with no link attribution (broadcasts)."""
        with self._lock:
            return self._unattributed_bytes

    def bytes_by_scope(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            for record in self._records:
                out[record.scope] += record.nbytes
        return dict(out)

    def records(self) -> list[TransferRecord]:
        with self._lock:
            return list(self._records)

    def snapshot(self) -> int:
        """Current total, for measuring deltas around a phase."""
        return self.total_bytes
