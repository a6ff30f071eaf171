"""Self-healing communicator: recovery from every message-level fault.

Each test injects exactly one fault kind through a deterministic hook and
asserts both sides of the contract: the receiver still gets the pristine
payload (bitwise) and the recovery mechanism that saved it is visible in
``comm.stats``.  The envelope (sequence number, crc32, outbox, NACK) is
always on — there is no other receive path to compare against.
"""

import threading

import numpy as np
import pytest

from repro.resilience import CommFault, FaultInjector, FaultPlan
from repro.runtime import MPIAbort, MPIError, SimulatedCommunicator, mpi_runtime


def payload(value, n=4):
    return np.full(n, float(value))


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """A short backoff so NACK rounds take milliseconds."""
    monkeypatch.setattr(mpi_runtime, "BACKOFF_INITIAL", 0.001)
    monkeypatch.setattr(mpi_runtime, "BACKOFF_CAP", 0.01)


def make_comm(size=2, timeout=5.0, fault_hook=None):
    return SimulatedCommunicator(size, timeout=timeout, fault_hook=fault_hook)


def hook_for(*faults):
    """A fault hook driven by a FaultPlan, as the executor builds it."""
    return FaultInjector(FaultPlan(comm_faults=tuple(faults))).on_send


class TestDropRecovery:
    def test_dropped_message_recovered_by_retransmission(self):
        comm = make_comm(fault_hook=hook_for(CommFault("drop", 0)))
        comm.send(0, 1, 0, payload(1))
        out = comm.receive(0, 1, 0)
        np.testing.assert_array_equal(out, payload(1))
        assert comm.stats["retransmissions"] >= 1
        assert comm.stats["receive_retries"] >= 1

    def test_later_arrival_does_not_mask_a_dropped_predecessor(self):
        """Regression: a seq-1 message already in the mailbox must not
        satisfy the wait for seq 0 — the NACK that retransmits the dropped
        seq 0 has to fire even while later traffic is queued."""
        comm = make_comm(fault_hook=hook_for(CommFault("drop", 0)))
        comm.send(0, 1, 0, payload(1))  # dropped, survives in the outbox
        comm.send(0, 1, 0, payload(2))  # delivered, seq 1
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(1))
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(2))
        assert comm.stats["retransmissions"] >= 1

    def test_drop_of_never_retransmittable_message_still_times_out(self):
        comm = make_comm(timeout=0.2)
        with pytest.raises(MPIError, match="receive timed out"):
            comm.receive(0, 1, 0)


class TestDelayRecovery:
    def test_delayed_message_released_by_nack(self):
        comm = make_comm(fault_hook=hook_for(CommFault("delay", 0)))
        comm.send(0, 1, 0, payload(3))
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(3))
        assert comm.stats["delays_released"] == 1

    def test_delayed_message_behind_later_traffic_is_released(self):
        comm = make_comm(fault_hook=hook_for(CommFault("delay", 0)))
        comm.send(0, 1, 0, payload(1))  # held back
        comm.send(0, 1, 0, payload(2))  # delivered first
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(1))
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(2))
        assert comm.stats["delays_released"] == 1


class TestDuplicateRecovery:
    def test_duplicate_deduplicated_by_sequence_number(self):
        comm = make_comm(fault_hook=hook_for(CommFault("duplicate", 0)))
        comm.send(0, 1, 0, payload(4))
        comm.send(0, 1, 0, payload(5))
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(4))
        # The stale copy of seq 0 is purged while scanning for seq 1.
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(5))
        assert comm.stats["duplicates_dropped"] == 1

    def test_logical_message_count_excludes_recovery_traffic(self):
        comm = make_comm(fault_hook=hook_for(CommFault("duplicate", 0)))
        comm.send(0, 1, 0, payload(4))
        assert comm.message_count == 1


class TestCorruptionRecovery:
    def test_corrupted_payload_detected_and_retransmitted(self):
        comm = make_comm(fault_hook=hook_for(CommFault("corrupt", 0)))
        original = np.arange(6, dtype=float)
        comm.send(0, 1, 0, original)
        np.testing.assert_array_equal(comm.receive(0, 1, 0), original)
        assert comm.stats["corruptions_detected"] == 1
        assert comm.stats["retransmissions"] == 1


class TestFaultFreeTraffic:
    def test_payloads_in_order_exact_accounting_no_recovery_work(self):
        comm = make_comm()
        sent = [payload(value, n=3 + value) for value in range(4)]
        for data in sent:
            comm.send(0, 1, 7, data)
        comm.send(1, 0, 8, payload(10))
        for data in sent:
            np.testing.assert_array_equal(comm.receive(0, 1, 7), data)
        np.testing.assert_array_equal(comm.receive(1, 0, 8), payload(10))
        assert comm.message_count == 5
        assert comm.bytes_sent == sum(d.nbytes for d in sent) + 4 * 8
        assert set(comm.stats.values()) == {0}, comm.stats

    def test_a_slow_sender_is_waited_for_without_a_nack_round(self):
        """Without a fault hook nothing can go missing: a receive that waits
        40 ms (forty backoff slices here) for its sender is no recovery."""
        comm = make_comm()
        sender = threading.Timer(0.04, comm.send, args=(0, 1, 0, payload(1)))
        sender.start()
        np.testing.assert_array_equal(comm.receive(0, 1, 0), payload(1))
        sender.join()
        assert comm.stats["receive_retries"] == 0
        assert set(comm.stats.values()) == {0}, comm.stats

    def test_consumed_messages_leave_the_outbox(self):
        comm = make_comm()
        comm.send(0, 1, 0, payload(1))
        comm.send(0, 1, 0, payload(2))
        assert len(comm._outbox) == 2  # retained until acknowledged
        comm.receive(0, 1, 0)
        comm.receive(0, 1, 0)
        assert comm._outbox == {}

    def test_non_contiguous_payload_round_trips(self):
        """The checksum reads the sent copy's buffer in memory order; a
        strided Fortran-ordered face must verify like any other payload."""
        comm = make_comm()
        field = np.asfortranarray(np.arange(60.0).reshape(3, 4, 5))
        for face in (field[1:2], field[:, 1:2], field.transpose(1, 0, 2)[::2]):
            comm.send(0, 1, 0, face)
            np.testing.assert_array_equal(comm.receive(0, 1, 0), face)
        assert comm.stats["corruptions_detected"] == 0


class TestAbort:
    def test_abort_wakes_blocked_receive(self):
        comm = make_comm(timeout=30.0)
        errors = []

        def blocked():
            try:
                comm.receive(0, 1, 0)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=blocked)
        thread.start()
        comm.abort("rank 0 crashed")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], MPIAbort)
        assert "rank 0 crashed" in str(errors[0])

    def test_send_after_abort_raises(self):
        comm = make_comm()
        comm.abort("gone")
        with pytest.raises(MPIAbort):
            comm.send(0, 1, 0, payload(1))
