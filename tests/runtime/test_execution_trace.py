"""The per-step execution trace: ``DMacSession.run(..., trace=True)``."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.datasets import sparse_random
from repro.errors import ExecutionError
from repro.programs import build_gnmf_program


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
