"""What one workload does inside its process: set-up, oracle, jobs.

Two run kinds share one interface (``set_up``, ``oracle``, ``job``,
``layer_metrics``): :class:`BatchRun` builds a fresh ``DMacSession`` per
job, :class:`ServeRun` pushes many short jobs through one long-lived
``MatrixService``.  ``job(traced=True)`` executes the same job step-wise
through each layer's public function with a span around each call.

Only public entry points of :mod:`repro` are used; nothing is patched.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np
from tracing import TimedBackend, Tracer, self_seconds, union_seconds
from workloads import BatchWorkload, ServeWorkload

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.frontend.staged import StagedProgram
from repro.lint import LintContext, lint_plan
from repro.planopt import optimize_plan
from repro.runtime.executor import PlanExecutor
from repro.serve import JobSpec, MatrixService, ServiceConfig, TenantSpec
from repro.verify import verify_plan
from repro.verify.memory import predict_peak_memory

#: What the repo's other wall-clock benches use; the program's own pools
#: are the only parallelism (BLAS is pinned to one thread).
CLUSTER = ClusterConfig(num_workers=4, threads_per_worker=2)
ORACLE_RTOL = 1e-8
ORACLE_ATOL = 1e-12

_CELLWISE = ("backend.cellwise", "backend.fused_cellwise", "backend.scalar_op", "backend.unary")
_AGGREGATE = ("backend.row_agg", "backend.aggregate")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _overhead_ratio(jobs: list) -> float:
    """Median traced over median untraced job wall (same process,
    alternating jobs)."""
    return median(j.wall for j in jobs if j.traced) / median(j.wall for j in jobs if not j.traced)


def _signature(result) -> tuple:
    """Everything that must repeat exactly for the same inputs."""
    return (
        result.comm_bytes,
        result.simulated_seconds,
        result.num_stages,
        tuple((name, array.tobytes()) for name, array in sorted(result.matrices.items())),
        tuple(sorted(result.scalars.items())),
    )


def _flops(result) -> int:
    """Metered flops of a ``trace=True`` run (all segments of a staged one)."""
    if hasattr(result, "segments"):
        return sum(_flops(segment.result) for segment in result.segments)
    return sum(step.flops for step in result.trace)


def _oracle_mismatch(program, inputs, result) -> str | None:
    """Compare a run against an oracle independent of the runtime:
    numpy interpretation of the same program, or -- for the staged
    power iteration, which the local interpreter cannot run -- the
    eigenpair residual computed with numpy."""
    if isinstance(program, StagedProgram):
        (matrix,) = inputs.values()
        vector, value = result.matrices["x"], result.scalars["lam"]
        residual = float(np.linalg.norm(matrix @ vector - value * vector))
        limit = 10 * program.condition.rhs  # the loop ran `while residual > eps`
        return None if residual <= limit else f"eigen residual {residual:.3e} > {limit:.3e}"
    expected = run_local(program, inputs)
    for name, array in expected.matrices.items():
        if not np.allclose(result.matrices[name], array, rtol=ORACLE_RTOL, atol=ORACLE_ATOL):
            return f"matrix {name!r} differs from the numpy oracle"
    for name, value in expected.scalars.items():
        if not np.isclose(result.scalars[name], value, rtol=ORACLE_RTOL, atol=ORACLE_ATOL):
            return f"scalar {name!r} differs from the numpy oracle"
    return None


class _Run:
    """State both run kinds keep: what to run, and what went wrong."""

    def __init__(self, workload, seed: int, smoke: bool, corrupt: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        #: Self-test hook: perturb every result after the first.
        self.corrupt = corrupt
        self.tracer = Tracer()
        self.failures: list[str] = []
        #: ``peak_memory_bytes`` of every timed job (the simulated peak).
        self.peaks: list[int] = []


class BatchRun(_Run):
    """A registry program executed as one fresh session per job."""

    def __init__(self, workload: BatchWorkload, seed: int, smoke: bool, corrupt: bool):
        super().__init__(workload, seed, smoke, corrupt)
        #: Exact counts of every traced job.
        self.traced: list[dict] = []

    def set_up(self) -> None:
        self.built = None  # drop the previous repeat's inputs before building again
        gc.collect()
        started = time.perf_counter()
        self.built = self.workload.build(self.seed, self.smoke)
        self.build_s = time.perf_counter() - started
        self.reference = None
        self.job()  # warm-up: lazy imports, BLAS initialisation
        self.peaks.clear()

    def oracle(self) -> None:
        started = time.perf_counter()
        self.workload.compile(self.built.inputs)
        self.compile_s = time.perf_counter() - started
        result = DMacSession(CLUSTER, **self.workload.flags).run(
            self.built.program, self.built.inputs
        )
        mismatch = _oracle_mismatch(self.built.program, self.built.inputs, result)
        if mismatch:
            self.failures.append(f"oracle: {mismatch}")
        self.comm_bytes = result.comm_bytes
        self.sim_s = result.simulated_seconds

    def job(self, traced: bool = False) -> float:
        started = time.perf_counter()
        if traced:
            result = self._traced_job()
        else:
            session = DMacSession(CLUSTER, **self.workload.flags)
            result = session.run(self.built.program, self.built.inputs)
        wall = time.perf_counter() - started
        if self.corrupt and self.reference is not None:
            name = next(iter(result.matrices))
            result.matrices[name] = result.matrices[name] + 1e-9
        signature = _signature(result)
        if self.reference is None:
            self.reference = signature
        elif signature != self.reference:
            self.failures.append("job differs from the first job on the same inputs")
        self.peaks.append(result.peak_memory_bytes)
        return wall

    def _traced_job(self):
        """``DMacSession.run`` spelled out layer by layer, one span each."""
        flags = self.workload.flags
        program, inputs = self.built.program, self.built.inputs
        tracer = self.tracer
        tracer.job += 1
        facts = {"job": tracer.job}
        with tracer.span("job"):
            with tracer.span("session.construct"):
                session = DMacSession(CLUSTER, **flags)
            config, mode = session.config, session.estimation_mode
            with tracer.span("core.plan"):
                planner = DMacPlanner(
                    program,
                    config.num_workers,
                    pull_up_broadcast=session.pull_up_broadcast,
                    re_assignment=session.re_assignment,
                    estimation_mode=mode,
                )
                plan = schedule_stages(planner.plan())
            facts["core.plan_steps"] = len(plan.steps)
            if flags.get("optimize"):
                with tracer.span("planopt.optimize"):
                    plan = optimize_plan(plan, num_workers=config.num_workers, estimation_mode=mode)
            facts["planopt.rewrites"] = len(plan.rewrites)
            facts["planopt.steps_after"] = len(plan.steps)
            sizing = dict(
                num_workers=config.num_workers,
                threads_per_worker=config.threads_per_worker,
                block_size=config.block_size,
                inplace=config.inplace,
                max_concurrent_stages=config.max_concurrent_stages,
                estimation_mode=mode,
            )
            if flags.get("lint", "off") != "off":
                with tracer.span("lint.lint"):
                    if lint_plan(plan, LintContext.from_config(config, mode)).has_errors:
                        self.failures.append("traced job: lint reported errors")
            if flags.get("verify", "off") != "off":
                with tracer.span("verify.verify"):
                    if verify_plan(plan, **sizing).has_errors:
                        self.failures.append("traced job: verify reported hazards")
            with tracer.span("runtime.execute"):
                backend = TimedBackend(session.context.make_backend(), tracer)
                executor = PlanExecutor(session.context, config.block_size, backend=backend)
                result = executor.execute(plan, inputs, trace=True)
        with tracer.span("verify.predict_peak"):
            predict_peak_memory(plan, **sizing)
        facts["runtime.stages"] = result.num_stages
        facts["runtime.predicted_peak_bytes"] = result.predicted_peak_memory_bytes or 0
        facts["rdd.transfers"] = len(session.context.ledger.records())
        facts["localexec.flops"] = _flops(result)
        facts["kernels.batched_pairs"] = result.batched_pairs
        self.traced.append(facts)
        return result

    def layer_metrics(self, jobs: list, setup_scale: float) -> dict[str, float]:
        """Per-job medians of span time per layer, in reference-host
        seconds (``jobs`` carries each timed job's scale, in run order;
        ``setup_scale`` is the last set-up's), plus exact counts."""
        per_job: list[dict[str, float]] = []
        scales = [job.scale for job in jobs if job.traced]
        for facts, scale in zip(self.traced, scales, strict=True):
            spans = self.tracer.job_spans(facts["job"])
            total: dict[str, float] = {}
            for span in spans:
                total[span[3]] = total.get(span[3], 0.0) + (span[5] - span[4]) * scale
            execute = next(span for span in spans if span[3] == "runtime.execute")
            job = next(span for span in spans if span[3] == "job")
            total["runtime.self"] = self_seconds(spans, execute) * scale
            total["job.self"] = self_seconds(spans, job) * scale
            total["kernels.fused_steps"] = sum(s[3] == "backend.fused_cellwise" for s in spans)
            per_job.append(total)

        def mid(*names: str) -> float:
            return median(sum(job.get(name, 0.0) for name in names) for job in per_job)

        last = self.traced[-1]
        input_mb = sum(array.nbytes for array in self.built.inputs.values()) / 1e6
        stages = last["runtime.stages"]
        busy = mid("backend.matmul", *_CELLWISE)
        return {
            "datasets.build_s": (self.build_s - self.compile_s) * setup_scale,
            "datasets.input_mb": input_mb,
            "frontend.compile_s": self.compile_s * setup_scale,
            "session.construct_s": mid("session.construct"),
            "core.plan_s": mid("core.plan"),
            "core.plan_steps": last["core.plan_steps"],
            "planopt.optimize_s": mid("planopt.optimize"),
            "planopt.rewrites": last["planopt.rewrites"],
            "planopt.steps_after": last["planopt.steps_after"],
            "lint.lint_s": mid("lint.lint"),
            "verify.verify_s": mid("verify.verify"),
            "verify.predict_peak_s": mid("verify.predict_peak"),
            "runtime.execute_s": mid("runtime.execute"),
            "runtime.self_s": mid("runtime.self"),
            "runtime.stages": stages,
            "runtime.self_ms_per_stage": 1e3 * mid("runtime.self") / stages,
            "runtime.predicted_peak_bytes": last["runtime.predicted_peak_bytes"],
            "matrix.load_s": mid("backend.materialise_source"),
            "matrix.load_mb_per_s": input_mb / mid("backend.materialise_source"),
            "rdd.extend_s": mid("backend.extended"),
            "rdd.transfers": last["rdd.transfers"],
            "localexec.matmul_s": mid("backend.matmul"),
            "localexec.cellwise_s": mid(*_CELLWISE),
            "localexec.aggregate_s": mid(*_AGGREGATE),
            "localexec.flops": last["localexec.flops"],
            "localexec.gflops_per_s": last["localexec.flops"] / busy / 1e9 if busy else 0.0,
            "kernels.batched_pairs": last["kernels.batched_pairs"],
            "kernels.fused_steps": mid("kernels.fused_steps"),
            "trace.overhead_ratio": _overhead_ratio(jobs),
            "trace.job_self_share": mid("job.self") / mid("job"),
        }


class ServeRun(_Run):
    """A fixed rotation over a pool of pre-built programs, submitted one
    at a time to a long-lived two-tenant service (closed loop, one client).

    Jobs alternate hot and cold pool entries: the hot entries recur every
    12 jobs and stay in the 16-entry plan cache, the cold ones recur every
    ``2 * len(cold)`` jobs in a seeded order and always miss.  A rotation
    rather than independent draws, so every run times the same job mix
    whatever its length.  The seed also picks each job's tenant.
    """

    def __init__(self, workload: ServeWorkload, seed: int, smoke: bool, corrupt: bool):
        super().__init__(workload, seed, smoke, corrupt)
        #: (record, wall, traced) of every timed job.
        self.served: list[tuple] = []

    def set_up(self) -> None:
        self.pool = self.service = None  # drop the previous repeat before building again
        gc.collect()
        started = time.perf_counter()
        self.pool = self.workload.build(self.seed, self.smoke)
        self.build_s = time.perf_counter() - started
        self.service = MatrixService(
            ServiceConfig(
                tenants=tuple(TenantSpec(name) for name in self.workload.tenants),
                cluster=CLUSTER,
                plan_cache_entries=self.workload.plan_cache_entries,
                optimize=False,
                seed=self.seed,
            )
        )
        self.draws = random.Random(self.seed)
        self.cold = list(range(self.workload.hot_entries, len(self.pool)))
        self.draws.shuffle(self.cold)
        # Traced jobs walk the same rotation half a period behind the
        # untraced ones, so neither always finds the other's plan cached.
        self.position = {False: 0, True: len(self.cold)}
        self.reference: dict[int, tuple] = {}
        self._submit(0, traced=False)  # warm-up
        self.served.clear()
        self.peaks.clear()

    def oracle(self) -> None:
        """Run every pool entry directly, check its outputs, and keep its
        simulated books as what the service must report for it."""
        self.comm_bytes = self.pool_stages = self.pool_flops = self.pool_predicted_peak = 0
        self.sim_s = 0.0
        for index, (label, program, inputs) in enumerate(self.pool):
            result = DMacSession(CLUSTER).run(program, inputs, trace=True)
            mismatch = _oracle_mismatch(program, inputs, result)
            if mismatch:
                self.failures.append(f"oracle: {label}: {mismatch}")
            books = (result.comm_bytes, result.simulated_seconds, result.num_stages)
            if self.reference.setdefault(index, books) != books:
                self.failures.append(f"oracle: {label}: service and session books differ")
            self.comm_bytes += result.comm_bytes
            self.sim_s += result.simulated_seconds
            self.pool_stages += result.num_stages
            self.pool_flops += _flops(result)
            self.pool_predicted_peak = max(
                self.pool_predicted_peak, result.predicted_peak_memory_bytes or 0
            )

    def job(self, traced: bool = False) -> float:
        turn, is_cold = divmod(self.position[traced], 2)
        self.position[traced] += 1
        if is_cold:
            return self._submit(self.cold[turn % len(self.cold)], traced)
        return self._submit(turn % self.workload.hot_entries, traced)

    def _submit(self, index: int, traced: bool) -> float:
        label, program, inputs = self.pool[index]
        tenant = self.draws.choice(self.workload.tenants)
        spec = JobSpec(tenant=tenant, program=program, inputs=inputs, label=label)
        started = time.perf_counter()
        if traced:
            self.tracer.job += 1
            with self.tracer.span("job"):
                with self.tracer.span("serve.submit"):
                    record = self.service.submit(spec)
                with self.tracer.span("serve.drain"):
                    finished = self.service.drain(max_jobs=1)
        else:
            record = self.service.submit(spec)
            finished = self.service.drain(max_jobs=1)
        wall = time.perf_counter() - started
        books = (record.comm_bytes, record.simulated_seconds, record.num_stages)
        if self.corrupt and self.served:
            books = (books[0] + 1, *books[1:])
        if finished != [record] or record.state != "done":
            self.failures.append(f"{label}: {record.state} {record.error or ''}")
        elif self.reference.setdefault(index, books) != books:
            self.failures.append(f"{label}: books differ from the first job on these inputs")
        self.peaks.append(record.peak_memory_bytes)
        self.served.append((record, wall, traced))
        return wall

    def layer_metrics(self, jobs: list, setup_scale: float) -> dict[str, float]:
        """The split the public ``JobRecord`` fields give, in
        reference-host seconds; no backend wrapper here, so the
        engine-level layers are not reported."""
        records = [record for record, _, _ in self.served]
        scales = [job.scale for job in jobs]
        spans = self.tracer.spans
        traced = [
            (record, scale)
            for (record, _, was_traced), scale in zip(self.served, scales, strict=True)
            if was_traced
        ]
        submit = [
            ((s[5] - s[4]) * scale, record.plan_cache)
            for s, (record, scale) in zip(
                (s for s in spans if s[3] == "serve.submit"), traced, strict=True
            )
        ]
        job_spans = [s for s in spans if s[3] == "job"]
        covered = sum(
            union_seconds([(c[4], c[5]) for c in spans if c[1] == j[0]]) for j in job_spans
        )
        run_s = median(r.run_wall_seconds * scale for r, scale in zip(records, scales))
        return {
            "datasets.build_s": self.build_s * setup_scale,
            "datasets.input_mb": sum(
                array.nbytes for _, _, inputs in self.pool for array in inputs.values()
            )
            / 1e6,
            "frontend.compile_s": 0.0,  # not separable from the dataset through the registry
            "core.plan_s": median(
                r.plan_wall_seconds * scale
                for r, scale in zip(records, scales)
                if r.plan_cache == "miss"
            ),
            "runtime.execute_s": run_s,
            # Exact counts are taken over the fixed pool, not the jobs that ran.
            "runtime.stages": self.pool_stages,
            "runtime.predicted_peak_bytes": self.pool_predicted_peak,
            "localexec.flops": self.pool_flops,
            "serve.submit_hit_s_p50": median(wall for wall, cache in submit if cache == "hit"),
            "serve.submit_miss_s_p50": median(wall for wall, cache in submit if cache == "miss"),
            "serve.run_s_p50": run_s,
            "serve.run_ms_per_stage": 1e3 * run_s / median(r.num_stages for r in records),
            "serve.overhead_s_p50": median(
                (wall - record.plan_wall_seconds - record.run_wall_seconds) * scale
                for (record, wall, _), scale in zip(self.served, scales)
            ),
            "serve.plan_cache_hit_ratio": sum(r.plan_cache == "hit" for r in records)
            / len(records),
            "serve.rejected": sum(record.state == "rejected" for record in records),
            "serve.failed": sum(record.state == "failed" for record in records),
            "trace.overhead_ratio": _overhead_ratio(jobs),
            "trace.job_self_share": 1.0 - covered / sum(j[5] - j[4] for j in job_spans),
        }


def make_run(workload, seed: int, smoke: bool, corrupt: bool):
    kind = BatchRun if isinstance(workload, BatchWorkload) else ServeRun
    return kind(workload, seed, smoke, corrupt)
