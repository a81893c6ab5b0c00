"""The ChaosEngine: seeded, deterministic fault injection.

Every potential fault site is a *named point* -- a string built from the
clause index and stable coordinates of the site (stage-graph node, attempt
number, transfer ordinal within the node, instance name).  Whether a clause
fires at a point is decided by hashing ``seed | point`` (BLAKE2b) against
the clause's probability, so the decision depends only on the seed and the
plan structure -- never on wall-clock time, host thread scheduling or the
order in which concurrent stages happen to run.  Fire budgets (``times``)
are likewise tracked *per point family* (per stage island, per instance),
not globally, so no budget is consumed in host-thread order.

The engine is installed on the cluster context for the duration of one
execution (:meth:`repro.rdd.context.ClusterContext.install_chaos`); with
none installed every hook site is a ``None``-check and the run is
bit-identical to a build without this module.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
from typing import Iterator

from repro.errors import TransferFault, WorkerCrashed
from repro.faults.spec import FaultClause, parse_fault_spec
from repro.trace.emit import emit


class _StageScope:
    """Where the current thread is executing (one stage-graph node attempt)."""

    __slots__ = ("node", "stage", "attempt", "transfer_ordinal")

    def __init__(self, node: int, stage: int, attempt: int) -> None:
        self.node = node
        self.stage = stage
        self.attempt = attempt
        self.transfer_ordinal = 0  # transfers seen so far in this attempt


#: The scope of the stage currently executing on this thread (if any).
_SCOPE: contextvars.ContextVar[_StageScope | None] = contextvars.ContextVar(
    "repro_chaos_scope", default=None
)

_MAX_HASH = float(2**64)


class ChaosEngine:
    """Injects the faults of a parsed spec at deterministic points.

    Thread-safe: hooks are called from concurrent scheduler threads; all
    mutable state (fire budgets, attempt counters) is lock-protected, and
    every *decision* is a pure function of the seed and the point name, so
    concurrency cannot change what fires.  Each injection is one ``inject``
    event through :func:`repro.trace.emit.emit`.
    """

    def __init__(self, seed: int, faults: str | tuple[FaultClause, ...]) -> None:
        self.seed = int(seed)
        self.clauses: tuple[FaultClause, ...] = (
            parse_fault_spec(faults) if isinstance(faults, str) else tuple(faults)
        )
        self._lock = threading.Lock()
        self._fires: dict[tuple, int] = {}  # (clause index, point family) -> count
        self._node_attempts: dict[int, int] = {}
        self._driver_ordinal = 0

    # -- scope ----------------------------------------------------------------

    @contextlib.contextmanager
    def stage_scope(self, node) -> Iterator[None]:
        """Mark this thread as running one attempt of a stage-graph node."""
        with self._lock:
            attempt = self._node_attempts.get(node.index, 0) + 1
            self._node_attempts[node.index] = attempt
        token = _SCOPE.set(_StageScope(node.index, node.stage, attempt))
        try:
            yield
        finally:
            _SCOPE.reset(token)

    # -- hooks (called by the runtime and the rdd layer) -----------------------

    def on_stage_start(self) -> None:
        """Fault point at stage-attempt launch: injected worker crashes."""
        scope = _SCOPE.get()
        if scope is None:  # pragma: no cover - crash faults only fire in stages
            return
        for index, clause in enumerate(self.clauses):
            if clause.kind != "crash" or not clause.matches_stage(scope.stage):
                continue
            family = (index, "node", scope.node)
            point = f"crash/{index}/node={scope.node}/attempt={scope.attempt}"
            if not self._fire(clause, family, point):
                continue
            worker = clause.worker if clause.worker is not None else 0
            emit(
                {
                    "event": "inject",
                    "fault": "crash",
                    "clause": index,
                    "node": scope.node,
                    "stage": scope.stage,
                    "attempt": scope.attempt,
                    "worker": worker,
                }
            )
            raise WorkerCrashed(
                f"injected crash of worker {worker} in stage {scope.stage} "
                f"(node {scope.node}, attempt {scope.attempt})",
                worker=worker,
                stage=scope.stage,
            )

    def slowdown_factor(self) -> float:
        """Combined straggler slowdown for the current stage attempt (1.0 =
        healthy; matching clauses multiply)."""
        scope = _SCOPE.get()
        if scope is None:  # pragma: no cover - stragglers only fire in stages
            return 1.0
        factor = 1.0
        for index, clause in enumerate(self.clauses):
            if clause.kind != "straggler" or not clause.matches_stage(scope.stage):
                continue
            family = (index, "node", scope.node)
            point = f"straggler/{index}/node={scope.node}/attempt={scope.attempt}"
            if not self._fire(clause, family, point):
                continue
            factor *= clause.factor
            emit(
                {
                    "event": "inject",
                    "fault": "straggler",
                    "clause": index,
                    "node": scope.node,
                    "stage": scope.stage,
                    "attempt": scope.attempt,
                    "factor": clause.factor,
                }
            )
        return factor

    def on_transfer(self, kind: str, nbytes: int) -> None:
        """Fault point before a metered cross-worker transfer."""
        scope = _SCOPE.get()
        if scope is not None:
            scope.transfer_ordinal += 1
            ordinal = scope.transfer_ordinal
            where = f"node={scope.node}/attempt={scope.attempt}"
            family_site: object = scope.node
            stage: int | None = scope.stage
        else:
            with self._lock:
                self._driver_ordinal += 1
                ordinal = self._driver_ordinal
            where = "driver"
            family_site = "driver"
            stage = None
        for index, clause in enumerate(self.clauses):
            if clause.kind != "flaky":
                continue
            if clause.at is not None and clause.at != kind:
                continue
            if stage is not None and not clause.matches_stage(stage):
                continue
            if stage is None and clause.stage is not None:
                continue
            family = (index, "site", family_site)
            point = f"flaky/{index}/{where}/ord={ordinal}"
            if not self._fire(clause, family, point):
                continue
            emit(
                {
                    "event": "inject",
                    "fault": "flaky",
                    "clause": index,
                    "at": kind,
                    "where": where,
                    "ordinal": ordinal,
                    "nbytes": nbytes,
                }
            )
            raise TransferFault(
                f"injected transient {kind} failure at {where} "
                f"(transfer #{ordinal}, {nbytes} bytes)",
                stage=stage,
            )

    def on_shuffle_start(self, **info) -> None:
        """Fault point at the shuffle service's entry, before data moves."""
        self.on_transfer("shuffle", 0)

    def on_publish(self, instance) -> bool:
        """Fault point when an instance is published: ``True`` means its
        blocks are lost and the caller must invalidate it."""
        scope = _SCOPE.get()
        stage = scope.stage if scope is not None else None
        name = instance.name
        for index, clause in enumerate(self.clauses):
            if clause.kind != "lostblock" or clause.instance != name:
                continue
            if stage is not None and not clause.matches_stage(stage):
                continue
            family = (index, "instance", name)
            point = f"lostblock/{index}/instance={name}"
            if not self._fire(clause, family, point):
                continue
            emit(
                {
                    "event": "inject",
                    "fault": "lostblock",
                    "clause": index,
                    "instance": str(instance),
                    "stage": stage,
                }
            )
            return True
        return False

    # -- internals -------------------------------------------------------------

    def _fire(self, clause: FaultClause, family: tuple, point: str) -> bool:
        """Budget check + deterministic roll; consumes budget when firing."""
        with self._lock:
            if clause.times > 0 and self._fires.get(family, 0) >= clause.times:
                return False
            if self._roll(point) >= clause.probability:
                return False
            self._fires[family] = self._fires.get(family, 0) + 1
            return True

    def _roll(self, point: str) -> float:
        """Uniform [0, 1) value, a pure function of (seed, point)."""
        digest = hashlib.blake2b(
            f"{self.seed}|{point}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / _MAX_HASH
