"""Tests for the cluster-size advisor and the execution trace."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.advisor import advise_workers, best_worker_count
from repro.config import ClockConfig
from repro.datasets import sparse_random
from repro.errors import ExecutionError, PlanError
from repro.programs import build_gnmf_program, build_linreg_program


class TestAdvice:
    def test_compute_shrinks_with_workers(self):
        program = build_gnmf_program((256, 128), 0.1, factors=8, iterations=2)
        advice = advise_workers(program, (2, 4, 8))
        computes = [a.predicted_compute_seconds for a in advice]
        assert computes == sorted(computes, reverse=True)

    def test_advice_sorted_and_deduped(self):
        program = build_linreg_program((200, 20), 0.2, iterations=2)
        advice = advise_workers(program, (8, 2, 8, 4))
        assert [a.workers for a in advice] == [2, 4, 8]

    def test_best_worker_count_balances_comm_and_compute(self):
        """With a slow network, broadcast-heavy plans favour fewer workers;
        with a fast one, compute parallelism wins."""
        program = build_gnmf_program((512, 256), 0.1, factors=16, iterations=2)
        slow_net = advise_workers(
            program, (2, 16), clock=ClockConfig(network_bytes_per_sec=1e4)
        )
        fast_net = advise_workers(
            program, (2, 16), clock=ClockConfig(network_bytes_per_sec=1e12,
                                                dense_flops_per_sec=1e6)
        )
        assert best_worker_count(slow_net) == 2
        assert best_worker_count(fast_net) == 16

    def test_empty_candidates_rejected(self):
        program = build_linreg_program((50, 10), 0.2, iterations=1)
        with pytest.raises(PlanError):
            advise_workers(program, ())
        with pytest.raises(PlanError):
            best_worker_count([])

    def test_advice_matches_replanning(self):
        program = build_gnmf_program((128, 96), 0.1, factors=8, iterations=1)
        from repro.core.planner import DMacPlanner

        for entry in advise_workers(program, (2, 4)):
            plan = DMacPlanner(program, entry.workers).plan()
            assert entry.predicted_comm_bytes == plan.predicted_bytes


class TestExecutionTrace:
    def run_traced(self):
        data = sparse_random(64, 48, 0.1, seed=0, ensure_coverage=True)
        program = build_gnmf_program((64, 48), 0.1, factors=4, iterations=1)
        session = DMacSession(ClusterConfig(4, 1, block_size=16))
        return session.run(program, {"V": data}, trace=True)

    def test_trace_covers_all_steps(self):
        result = self.run_traced()
        assert result.trace is not None
        assert len(result.trace) > 0
        assert all(record.stage >= 1 for record in result.trace)

    def test_trace_comm_sums_to_total(self):
        result = self.run_traced()
        assert sum(r.comm_bytes for r in result.trace) == result.comm_bytes

    def test_comm_by_stage(self):
        result = self.run_traced()
        by_stage = result.comm_by_stage()
        assert sum(by_stage.values()) == result.comm_bytes

    def test_untraced_run_has_no_trace(self):
        data = sparse_random(32, 24, 0.2, seed=1, ensure_coverage=True)
        program = build_gnmf_program((32, 24), 0.2, factors=4, iterations=1)
        result = DMacSession(ClusterConfig(4, 1, block_size=8)).run(program, {"V": data})
        assert result.trace is None
        with pytest.raises(ExecutionError):
            result.comm_by_stage()

    def test_trace_flops_positive_for_compute_steps(self):
        result = self.run_traced()
        matmul_records = [r for r in result.trace if "rmm" in r.step or "cpmm" in r.step]
        assert matmul_records
        assert all(r.flops > 0 for r in matmul_records)
