"""Simulated MPI: in-process ranks exchanging numpy data.

The real system runs one MPI process per core on ARCHER2.  Offline we simulate
a communicator whose ranks live in the same Python process (optionally on
separate threads): sends copy data into a mailbox and receives block until a
matching message is available.  Each rank's interpreter counts the messages
and bytes it sends, so a distributed run reports the communication it
actually performed; the communicator counts only recovery work.

Every message carries a per-channel sequence number and a crc32 checksum,
the sender keeps a pristine copy of in-flight messages in an outbox, and a
receive that times out a backoff slice NACKs the channel — releasing
artificially delayed messages and retransmitting the missing sequence number
from the outbox.  Duplicates are deduplicated by sequence number and
corrupted payloads are detected by checksum and retransmitted.  Faults are
injected deterministically through a ``fault_hook`` (see
:class:`repro.resilience.FaultInjector`), the only injection point: without
one nothing can go missing, so a receive waits out its timeout with no NACK
round and the recovery counters stay zero.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class MPIError(Exception):
    """Raised on invalid communicator usage (bad rank, missing message, ...)."""


class MPIAbort(MPIError):
    """The communicator was aborted (a peer rank crashed); receivers blocked
    on the dead rank raise this immediately instead of waiting out their
    timeout."""


@dataclass
class _Envelope:
    """A message in flight: payload plus the metadata recovery needs."""

    seq: int
    payload: np.ndarray
    checksum: int


def _memory_order(data: np.ndarray) -> np.ndarray:
    """``data`` flattened in memory order: a view, not a copy, for the C- or
    Fortran-contiguous payloads the communicator holds."""
    return data.reshape(-1, order="A")


def _checksum(data: np.ndarray) -> int:
    # Verification runs on every receive, so crc32 reads the array's buffer
    # in place instead of serialising the payload first.
    return zlib.crc32(_memory_order(data))


def _corrupted_copy(data: np.ndarray) -> np.ndarray:
    """A copy with one byte flipped (crc32 always catches a single-byte
    error, so the receiver is guaranteed to detect it)."""
    corrupted = np.array(data, copy=True, order="A")
    raw = _memory_order(corrupted).view(np.uint8)
    if raw.size:
        raw[0] ^= 0xFF
    return corrupted


#: NACK rounds one receive may spend recovering a message before it waits
#: quietly for the rest of its timeout.
MAX_RECEIVE_RETRIES = 8
#: Seconds of the first backoff slice of a receive under a fault hook; each
#: NACK doubles the slice, up to :data:`BACKOFF_CAP`.
BACKOFF_INITIAL = 0.005
BACKOFF_CAP = 0.05


class SimulatedCommunicator:
    """An MPI_COMM_WORLD equivalent for in-process ranks."""

    def __init__(self, size: int, timeout: float = 30.0, *,
                 fault_hook: Optional[Callable[[int, int, int],
                                               Optional[str]]] = None):
        if size < 1:
            raise MPIError("communicator size must be >= 1")
        if timeout <= 0:
            raise MPIError(f"timeout must be positive, got {timeout!r}")
        self.size = size
        #: Default blocking-receive timeout in seconds.  Tests that
        #: provoke deadlocks shrink this so a missing send surfaces its
        #: diagnostic in milliseconds instead of stalling CI for 30 s.
        self.timeout = timeout
        self._fault_hook = fault_hook
        self._mailboxes: Dict[Tuple[int, int, int], List[_Envelope]] = {}
        #: Messages a "delay" fault is holding back, released on NACK.
        self._delayed: Dict[Tuple[int, int, int], List[_Envelope]] = {}
        #: Pristine copies of in-flight sends, keyed by (channel, seq), kept
        #: until the receiver acknowledges the sequence number by consuming
        #: it — the source for NACK-driven retransmission.
        self._outbox: Dict[Tuple[Tuple[int, int, int], int], np.ndarray] = {}
        self._next_send_seq: Dict[Tuple[int, int, int], int] = {}
        self._next_recv_seq: Dict[Tuple[int, int, int], int] = {}
        self._lock = threading.Condition()
        self._aborted: Optional[str] = None
        #: Recovery-mechanism counters, folded into a RecoveryReport by the
        #: distributed executor.
        self.stats: Dict[str, int] = {
            "receive_retries": 0,
            "retransmissions": 0,
            "duplicates_dropped": 0,
            "corruptions_detected": 0,
            "delays_released": 0,
        }

    # ------------------------------------------------------------------
    # Abort signalling
    # ------------------------------------------------------------------

    def abort(self, reason: str) -> None:
        """Fail-fast broadcast: wake every blocked receive so the
        whole fleet unwinds immediately instead of timing out one rank at a
        time (the executor then rolls back to the last checkpoint)."""
        with self._lock:
            if self._aborted is None:
                self._aborted = reason
            self._lock.notify_all()

    def _raise_if_aborted_locked(self) -> None:
        if self._aborted is not None:
            raise MPIAbort(f"communicator aborted: {self._aborted}")

    # ------------------------------------------------------------------
    # Point to point
    # ------------------------------------------------------------------

    def send(self, source: int, dest: int, tag: int, payload: np.ndarray) -> None:
        self._check_rank(source)
        self._check_rank(dest)
        data = np.array(payload, copy=True)
        fault = self._fault_hook(source, dest, tag) if self._fault_hook else None
        with self._lock:
            self._raise_if_aborted_locked()
            key = (source, dest, tag)
            seq = self._next_send_seq.get(key, 0)
            self._next_send_seq[key] = seq + 1
            checksum = _checksum(data)
            self._outbox[(key, seq)] = data
            envelope = _Envelope(seq, data, checksum)
            queue = self._mailboxes.setdefault(key, [])
            if fault == "drop":
                pass  # the outbox copy survives for NACK retransmission
            elif fault == "delay":
                self._delayed.setdefault(key, []).append(envelope)
            elif fault == "duplicate":
                queue.append(envelope)
                queue.append(_Envelope(seq, np.array(data, copy=True),
                                       checksum))
            elif fault == "corrupt":
                queue.append(_Envelope(seq, _corrupted_copy(data), checksum))
            else:
                queue.append(envelope)
            self._lock.notify_all()

    def receive(self, source: int, dest: int, tag: int,
                timeout: Optional[float] = None) -> np.ndarray:
        """Receive with dedup, checksum verification, and NACK recovery.

        The loop scans the mailbox for the expected sequence number: stale
        duplicates are dropped, a checksum mismatch discards the payload and
        retransmits from the outbox, and a missing message waits one backoff
        slice before NACKing the channel (release delayed + retransmit).
        Backoff doubles up to a cap; the overall ``timeout`` still bounds the
        whole receive.  Without a ``fault_hook`` there is no NACK round: the
        one wait is the whole timeout.
        """
        self._check_rank(source)
        self._check_rank(dest)
        if timeout is None:
            timeout = self.timeout
        key = (source, dest, tag)
        deadline = time.monotonic() + timeout
        backoff = BACKOFF_INITIAL
        retries = 0
        with self._lock:
            expected = self._next_recv_seq.get(key, 0)
            while True:
                self._raise_if_aborted_locked()
                queue = self._mailboxes.get(key, [])
                kept: List[_Envelope] = []
                found: Optional[_Envelope] = None
                for env in queue:
                    if env.seq < expected:
                        self.stats["duplicates_dropped"] += 1
                    elif env.seq == expected and found is None:
                        found = env
                    else:
                        kept.append(env)
                queue[:] = kept
                if found is not None:
                    if _checksum(found.payload) != found.checksum:
                        self.stats["corruptions_detected"] += 1
                        self._retransmit_locked(key, expected)
                        continue  # rescan: the pristine copy is queued now
                    self._next_recv_seq[key] = expected + 1
                    self._ack_locked(key, expected)
                    return found.payload
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPIError(self._receive_timeout_message_locked(
                        key, timeout))
                # Wake only on the *expected* seq: a later-seq arrival (its
                # predecessor dropped or delayed) must not satisfy the wait,
                # or the NACK that recovers the gap would never fire.
                got = self._lock.wait_for(
                    lambda: self._aborted is not None
                    or any(e.seq == expected
                           for e in self._mailboxes.get(key, ())),
                    timeout=remaining if self._fault_hook is None
                    else min(backoff, remaining),
                )
                if (not got and self._fault_hook is not None
                        and retries < MAX_RECEIVE_RETRIES):
                    # The cap bounds *recovery* rounds, not honest waiting:
                    # once NACKs are exhausted we keep waiting quietly until
                    # the overall timeout, so a slow-but-healthy sender is
                    # never declared dead by the backoff schedule alone.
                    retries += 1
                    self.stats["receive_retries"] += 1
                    self._nack_locked(key, expected)
                    backoff = min(backoff * 2, BACKOFF_CAP)

    def _ack_locked(self, key: Tuple[int, int, int], seq: int) -> None:
        """Consuming ``seq`` acknowledges it: drop outbox copies up to it."""
        for outbox_key in [k for k in self._outbox
                           if k[0] == key and k[1] <= seq]:
            del self._outbox[outbox_key]

    def _nack_locked(self, key: Tuple[int, int, int], seq: int) -> None:
        """The receiver gave up a backoff slice waiting for ``seq``: release
        any artificially delayed messages and, if the expected message is
        still absent, retransmit it from the sender's outbox."""
        held = self._delayed.pop(key, None)
        if held:
            self._mailboxes.setdefault(key, []).extend(held)
            self.stats["delays_released"] += len(held)
        if not any(e.seq == seq for e in self._mailboxes.get(key, ())):
            self._retransmit_locked(key, seq)

    def _retransmit_locked(self, key: Tuple[int, int, int], seq: int) -> None:
        pristine = self._outbox.get((key, seq))
        if pristine is not None:
            self._mailboxes.setdefault(key, []).append(
                _Envelope(seq, np.array(pristine, copy=True),
                          _checksum(pristine)))
            self.stats["retransmissions"] += 1

    def _receive_timeout_message_locked(self, key: Tuple[int, int, int],
                                        timeout: float) -> str:
        # A deadlocked multi-rank run is diagnosable only if the error says
        # what *was* in flight: snapshot every non-empty mailbox so the
        # missing/mis-tagged send stands out.
        source, dest, tag = key
        pending = self._pending_snapshot_locked()
        return (
            f"receive timed out after {timeout:g}s: rank {dest} "
            f"waiting for message from rank {source} with tag {tag}; "
            f"pending messages: {pending if pending else 'none'}"
        )

    def _pending_snapshot_locked(self) -> Dict[str, int]:
        return {
            f"src={s} dest={d} tag={t}": len(queue)
            for (s, d, t), queue in sorted(self._mailboxes.items())
            if queue
        }

    # ------------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} out of range for communicator of size {self.size}")


@dataclass
class CartesianDecomposition:
    """A block decomposition of an N-d global domain over a process grid.

    The grid splits the domain's leading dimensions, one per grid dimension:
    the paper decomposes the 3-D Gauss-Seidel domain over a 2-D process grid
    (§4.4), splitting dimensions 0 and 1.
    """

    global_shape: Tuple[int, ...]
    grid_shape: Tuple[int, ...]

    def coords_of(self, rank: int) -> Tuple[int, ...]:
        coords = []
        remaining = rank
        for extent in reversed(self.grid_shape):
            coords.append(remaining % extent)
            remaining //= extent
        return tuple(reversed(coords))

    def rank_of(self, coords: Sequence[int]) -> int:
        rank = 0
        for coord, extent in zip(coords, self.grid_shape):
            if not (0 <= coord < extent):
                return -1
            rank = rank * extent + coord
        return rank

    def local_bounds(self, rank: int) -> List[Tuple[int, int]]:
        """Half-open [lb, ub) bounds of the sub-domain owned by ``rank``."""
        coords = self.coords_of(rank)
        bounds: List[Tuple[int, int]] = []
        for dim, extent in enumerate(self.global_shape):
            if dim < len(self.grid_shape):
                parts = self.grid_shape[dim]
                coord = coords[dim]
                base = extent // parts
                remainder = extent % parts
                lb = coord * base + min(coord, remainder)
                size = base + (1 if coord < remainder else 0)
                bounds.append((lb, lb + size))
            else:
                bounds.append((0, extent))
        return bounds


__all__ = [
    "SimulatedCommunicator",
    "CartesianDecomposition",
    "MPIError",
    "MPIAbort",
]
