"""Tests for the simulated clock."""

import pytest

from repro.config import ClockConfig
from repro.rdd.clock import SimulatedClock, TimeBreakdown


def clock() -> SimulatedClock:
    return SimulatedClock(
        ClockConfig(
            network_bytes_per_sec=100.0,
            dense_flops_per_sec=1000.0,
            sparse_flops_per_sec=100.0,
            latency_per_stage_sec=0.5,
        )
    )


class TestNetwork:
    def test_bytes_to_seconds(self):
        c = clock()
        c.advance_network(200)
        assert c.elapsed.network_seconds == pytest.approx(2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            clock().advance_network(-1)


class TestCompute:
    def test_slowest_worker_dominates(self):
        c = clock()
        c.advance_compute({0: 1000, 1: 4000}, {}, threads_per_worker=1)
        assert c.elapsed.compute_seconds == pytest.approx(4.0)

    def test_threads_divide_time(self):
        c = clock()
        c.advance_compute({0: 4000}, {}, threads_per_worker=4)
        assert c.elapsed.compute_seconds == pytest.approx(1.0)

    def test_sparse_flops_slower(self):
        c = clock()
        c.advance_compute({}, {0: 1000}, threads_per_worker=1)
        assert c.elapsed.compute_seconds == pytest.approx(10.0)

    def test_mixed_flops_add(self):
        c = clock()
        c.advance_compute({0: 1000}, {0: 100}, threads_per_worker=1)
        assert c.elapsed.compute_seconds == pytest.approx(2.0)

    def test_empty_phase_is_free(self):
        c = clock()
        c.advance_compute({}, {}, threads_per_worker=1)
        assert c.elapsed_seconds == 0.0


class TestOverheadAndBreakdown:
    def test_stage_overhead(self):
        c = clock()
        c.advance_stage_overhead(3)
        assert c.elapsed.overhead_seconds == pytest.approx(1.5)

    def test_total_is_sum(self):
        c = clock()
        c.advance_network(100)
        c.advance_compute({0: 1000}, {}, 1)
        c.advance_stage_overhead(2)
        assert c.elapsed_seconds == pytest.approx(1.0 + 1.0 + 1.0)

    def test_communication_share(self):
        breakdown = TimeBreakdown(network_seconds=44, compute_seconds=56)
        assert breakdown.communication_share == pytest.approx(0.44)

    def test_communication_share_empty(self):
        assert TimeBreakdown().communication_share == 0.0

    def test_elapsed_is_a_copy(self):
        c = clock()
        snap = c.elapsed
        c.advance_network(100)
        assert snap.network_seconds == 0.0


class TestHeterogeneousWorkers:
    def test_end_to_end_straggler_slows_simulated_run(self):
        import numpy as np

        from repro.config import ClusterConfig
        from repro.faults import ChaosEngine
        from repro.lang.program import ProgramBuilder
        from repro.session import DMacSession

        pb = ProgramBuilder()
        a = pb.load("A", (64, 64))
        pb.output(pb.assign("B", a @ a))
        program = pb.build()
        array = np.random.default_rng(0).random((64, 64))

        def run(chaos):
            config = ClusterConfig(num_workers=4, threads_per_worker=1, block_size=16)
            return DMacSession(config).run(program, {"A": array}, chaos=chaos)

        # The chaos ``straggler`` clause is the one model of a slow worker.
        fast = run(None)
        slow = run(ChaosEngine(0, "straggler:factor=10"))
        assert slow.time.compute_seconds > fast.time.compute_seconds
        np.testing.assert_allclose(slow.matrices["B"], fast.matrices["B"])
