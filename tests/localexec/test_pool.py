"""Tests for the memory tracker."""

import threading

import pytest

from repro.errors import MemoryLimitExceeded
from repro.localexec.pool import MemoryTracker


class TestMemoryTracker:
    def test_allocate_release(self):
        tracker = MemoryTracker()
        tracker.allocate(100)
        assert tracker.current_bytes == 100
        tracker.release(40)
        assert tracker.current_bytes == 60

    def test_peak_is_high_water_mark(self):
        tracker = MemoryTracker()
        tracker.allocate(100)
        tracker.release(100)
        tracker.allocate(30)
        assert tracker.peak_bytes == 100
        assert tracker.current_bytes == 30

    def test_limit_enforced(self):
        tracker = MemoryTracker(limit_bytes=50)
        tracker.allocate(40)
        with pytest.raises(MemoryLimitExceeded):
            tracker.allocate(20)
        # The failed allocation is not recorded.
        assert tracker.current_bytes == 40

    def test_release_never_goes_negative(self):
        tracker = MemoryTracker()
        tracker.release(10)
        assert tracker.current_bytes == 0

    def test_negative_amounts_rejected(self):
        tracker = MemoryTracker()
        with pytest.raises(ValueError):
            tracker.allocate(-1)
        with pytest.raises(ValueError):
            tracker.release(-1)

    def test_reset_peak(self):
        tracker = MemoryTracker()
        tracker.allocate(100)
        tracker.release(90)
        tracker.reset_peak()
        assert tracker.peak_bytes == 10

    def test_thread_safety(self):
        tracker = MemoryTracker()

        def worker():
            for __ in range(1000):
                tracker.allocate(1)
                tracker.release(1)

        threads = [threading.Thread(target=worker) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.current_bytes == 0

