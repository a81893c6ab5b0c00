"""Tests for the communication ledger."""

import pytest

from repro.rdd.ledger import CommunicationLedger


class TestRecording:
    def test_total_accumulates(self):
        ledger = CommunicationLedger()
        ledger.record("shuffle", 100)
        ledger.record("broadcast", 50)
        assert ledger.total_bytes == 150

    def test_zero_byte_transfers_not_recorded(self):
        ledger = CommunicationLedger()
        ledger.record("shuffle", 0)
        assert ledger.records() == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CommunicationLedger().record("teleport", 10)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommunicationLedger().record("shuffle", -1)

    def test_bytes_by_kind(self):
        ledger = CommunicationLedger()
        ledger.record("shuffle", 10)
        ledger.record("shuffle", 20)
        ledger.record("broadcast", 5)
        assert ledger.bytes_by_kind() == {"shuffle": 30, "broadcast": 5}


class TestScoping:
    def test_scope_tags_records(self):
        ledger = CommunicationLedger()
        with ledger.scope("stage-1"):
            ledger.record("shuffle", 10)
        ledger.record("shuffle", 5)
        assert ledger.bytes_by_scope() == {"stage-1": 10, "": 5}

    def test_nested_scopes_join(self):
        ledger = CommunicationLedger()
        with ledger.scope("stage-2"):
            with ledger.scope("partition(W)"):
                ledger.record("shuffle", 7)
        assert ledger.bytes_by_scope() == {"stage-2/partition(W)": 7}

    def test_scope_restored_after_exception(self):
        ledger = CommunicationLedger()
        with pytest.raises(RuntimeError):
            with ledger.scope("oops"):
                raise RuntimeError
        assert ledger.current_scope() == ""


class TestSnapshots:
    def test_snapshot_delta(self):
        ledger = CommunicationLedger()
        ledger.record("shuffle", 10)
        mark = ledger.snapshot()
        ledger.record("shuffle", 25)
        assert ledger.snapshot() - mark == 25


class TestRunningTotals:
    """``total_bytes`` / ``unattributed_bytes`` are running sums, not scans:
    they must equal the record list whatever interleaving produced it."""

    @staticmethod
    def _assert_totals_match_records(ledger):
        records = ledger.records()
        assert ledger.total_bytes == sum(r.nbytes for r in records)
        assert ledger.unattributed_bytes == sum(
            r.nbytes for r in records if r.link is None
        )

    def test_totals_follow_record(self):
        ledger = CommunicationLedger()
        ledger.record("shuffle", 10, link=(0, 1))
        ledger.record("broadcast", 7)
        ledger.record("rebalance", 0)  # dropped, not counted
        assert (ledger.total_bytes, ledger.unattributed_bytes) == (17, 7)
        self._assert_totals_match_records(ledger)
        ledger.record("shuffle", 3, link=(1, 0))
        self._assert_totals_match_records(ledger)

    def test_totals_survive_concurrent_record(self):
        import sys
        import threading

        ledger = CommunicationLedger()

        def recorder(seed):
            for i in range(4000):
                link = (seed, i % 3) if i % 2 else None
                ledger.record("shuffle" if link else "broadcast", 1 + i % 7, link)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            recorders = [threading.Thread(target=recorder, args=(n,)) for n in range(6)]
            for thread in recorders:
                thread.start()
            for thread in recorders:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in recorders)
        assert len(ledger.records()) == 6 * 4000
        self._assert_totals_match_records(ledger)
        ledger.record("broadcast", 5)
        self._assert_totals_match_records(ledger)
