"""Cluster and engine configuration objects.

The paper's experiments run on clusters of 4--20 physical nodes with eight
local threads each (Section 6.1).  :class:`ClusterConfig` captures exactly
the knobs the paper varies: the number of workers ``K``, the local
parallelism ``L``, the block size, the local aggregation mode (In-Place vs
Buffer, Section 5.3) and the parameters of the simulated clock used to turn
metered bytes/flops into an execution-time estimate.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ClusterError


@dataclasses.dataclass(frozen=True)
class ClockConfig:
    """Parameters of the simulated clock.

    The defaults model commodity 2015-era hardware: a gigabit-class network
    and a few Gflop/s of effective per-thread dense throughput.  Absolute
    values only scale the reported seconds; the DMac-vs-baseline *ratios*
    depend on bytes and flops, which are measured, not modelled.
    """

    network_bytes_per_sec: float = 125e6  # ~1 Gbit/s effective
    dense_flops_per_sec: float = 2e9  # per thread
    sparse_flops_per_sec: float = 5e8  # per thread; irregular access is slower
    disk_bytes_per_sec: float = 100e6
    latency_per_stage_sec: float = 0.1  # scheduling + task launch overhead
    #: Optional per-worker relative speeds (1.0 = nominal, 0.5 = half speed).
    #: Workers beyond the tuple's length run at nominal speed.  Models
    #: heterogeneous clusters / stragglers: stage time is the slowest
    #: worker's, so one slow node drags whole stages.
    worker_speed_factors: tuple[float, ...] | None = None

    def worker_speed(self, worker: int) -> float:
        """Relative speed of one worker (nominal 1.0)."""
        if self.worker_speed_factors is None or worker >= len(self.worker_speed_factors):
            return 1.0
        factor = self.worker_speed_factors[worker]
        if factor <= 0:
            raise ValueError(f"worker speed factors must be positive, got {factor}")
        return factor


@dataclasses.dataclass(frozen=True)
class RecoveryConfig:
    """Fault-tolerance knobs of the runtime (see :mod:`repro.faults`).

    The defaults are inert for clean runs: retries only trigger on
    *injected* transient faults, checkpointing and speculation are off, so
    with no :class:`~repro.faults.ChaosEngine` installed (or with one that
    never fires) ledgered bytes, chosen strategies and numeric results are
    bit-identical to a run without this config.

    Attributes:
        max_stage_attempts: how many times a stage node may run before its
            failure is final (retries happen only for retryable injected
            faults; genuine errors always fail fast).
        backoff_base_sec: simulated backoff before the second attempt;
            doubles per retry (capped), charged to the node's duration.
        backoff_cap_sec: upper bound on a single backoff interval.
        checkpoint_every: persist loop-carried instances (SSA versions
            ``X@v``) every ``k`` iterations so lineage recovery replays from
            the last checkpoint instead of iteration 0; ``0`` disables.
        speculation_multiplier: launch a speculative copy of a stage node
            once it exceeds ``N x`` the median duration of its same-stage
            siblings (first finisher wins, the loser's remaining time is
            not charged); ``0`` disables.
    """

    max_stage_attempts: int = 3
    backoff_base_sec: float = 1.0
    backoff_cap_sec: float = 30.0
    checkpoint_every: int = 0
    speculation_multiplier: float = 0.0

    def __post_init__(self) -> None:
        if self.max_stage_attempts < 1:
            raise ClusterError(
                f"max_stage_attempts must be >= 1, got {self.max_stage_attempts}"
            )
        if self.backoff_base_sec < 0 or self.backoff_cap_sec < 0:
            raise ClusterError("backoff seconds must be >= 0")
        if self.checkpoint_every < 0:
            raise ClusterError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.speculation_multiplier < 0:
            raise ClusterError(
                f"speculation_multiplier must be >= 0, "
                f"got {self.speculation_multiplier}"
            )


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Static description of the (simulated) cluster.

    Attributes:
        num_workers: number of worker nodes ``K`` (paper: 4 default, up to
            20); with an ``elastic`` timeline, the *initial* membership.
        threads_per_worker: local parallelism ``L`` (paper: 8).
        block_size: rows/columns per square block, or ``None`` to let the
            engine choose via Equation 3 of the paper.
        inplace: use the In-Place local aggregation strategy when ``True``
            (the DMac default), the Buffer strategy otherwise.
        memory_limit_bytes: per-worker simulated memory budget; ``None``
            disables the check.  Exceeding it raises
            :class:`repro.errors.MemoryLimitExceeded`, which reproduces the
            paper's "Buffer cannot run Wikipedia in 48 GB" observation.
        clock: simulated clock parameters.
        max_concurrent_stages: how many independent stage-graph nodes the
            runtime may dispatch at once; ``None`` uses the scheduler
            default, ``1`` forces the historical serial order.
        recovery: fault-tolerance parameters (retry/backoff, checkpointing,
            speculative re-execution) consumed when a
            :class:`~repro.faults.ChaosEngine` is installed.
        resource_event_log_limit: cap on the ResourceManager's lifecycle
            event log (long iterative runs with retries would otherwise
            grow it without bound); ``None`` keeps it unbounded.
        cache_limit_bytes: per-worker budget for instances the optimizer
            pinned in the runtime BlockCache.  ``None`` falls back to
            ``memory_limit_bytes`` (and to "unbounded" when that is also
            ``None``).  Exceeding it never fails a run: the least recently
            used pinned instance is spilled and, if read again, recomputed
            through lineage.
        elastic: membership-timeline spec (the ``--elastic`` grammar of
            :mod:`repro.elastic.spec`, e.g. ``"join@2; leave@5"``): workers
            join and leave between stages while partitions stay on their
            static slots.  ``None`` or ``""`` is the timeline with no
            events -- the static cluster.
        elastic_seed: seed of the rendezvous slot assignment a timeline
            with events uses (same seed + same timeline = byte-identical
            runs).
    """

    num_workers: int = 4
    threads_per_worker: int = 8
    block_size: int | None = None
    inplace: bool = True
    memory_limit_bytes: int | None = None
    clock: ClockConfig = dataclasses.field(default_factory=ClockConfig)
    max_concurrent_stages: int | None = None
    recovery: RecoveryConfig = dataclasses.field(default_factory=RecoveryConfig)
    resource_event_log_limit: int | None = 65536
    cache_limit_bytes: int | None = None
    elastic: str | None = None
    elastic_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ClusterError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.threads_per_worker < 1:
            raise ClusterError(
                f"threads_per_worker must be >= 1, got {self.threads_per_worker}"
            )
        if self.block_size is not None and self.block_size < 1:
            raise ClusterError(f"block_size must be >= 1, got {self.block_size}")
        if self.memory_limit_bytes is not None and self.memory_limit_bytes < 1:
            raise ClusterError(
                f"memory_limit_bytes must be >= 1 or None, "
                f"got {self.memory_limit_bytes}"
            )
        if self.max_concurrent_stages is not None and self.max_concurrent_stages < 1:
            raise ClusterError(
                f"max_concurrent_stages must be >= 1, got {self.max_concurrent_stages}"
            )
        if (
            self.resource_event_log_limit is not None
            and self.resource_event_log_limit < 1
        ):
            raise ClusterError(
                f"resource_event_log_limit must be >= 1 or None, "
                f"got {self.resource_event_log_limit}"
            )
        if self.cache_limit_bytes is not None and self.cache_limit_bytes < 1:
            raise ClusterError(
                f"cache_limit_bytes must be >= 1 or None, "
                f"got {self.cache_limit_bytes}"
            )
