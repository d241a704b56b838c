"""High-availability Taint Map (paper §VI).

    "it can be improved by some reliable designs, e.g., adding a standby
    node to handle with the single point failure."

This module implements that suggestion: a primary
:class:`~repro.core.taintmap.TaintMapServer` streams every Global-ID
allocation to a standby replica (``OP_SYNC``), and
:class:`FailoverTaintMapClient` transparently switches to the standby
when the primary becomes unreachable.  GID numbering is preserved across
failover because the standby applies allocations verbatim.
"""

from __future__ import annotations

import struct
import threading
from typing import Optional

from repro.core import taintmap
from repro.core.taintmap import (
    DEFAULT_DEADLINE_S,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    round_trip,
)
from repro.errors import TaintMapError
from repro.runtime.kernel import Address, SimKernel, TcpEndpoint

#: Replication opcode: payload = 4-byte GID + serialized tag set.
OP_SYNC = 3


class StandbyTaintMapServer(TaintMapServer):
    """A replica that accepts verbatim GID allocations from the primary.

    An ``OP_SYNC`` that would break the GID ⇄ taint bijection is
    answered ``STATUS_BAD_REQUEST`` and changes nothing: GID 0 (the
    empty taint), a known GID for another taint, or a taint already
    bound to another GID.  A repeat of a known allocation is a no-op.
    """

    def _handle(self, op: int, payload: bytes) -> tuple[int, bytes]:
        if op == OP_SYNC:
            # A malformed frame is answered, never allowed to close the
            # primary's connection.
            if len(payload) < 4:
                return STATUS_BAD_REQUEST, b""
            (gid,) = struct.unpack(">I", payload[:4])
            serialized = payload[4:]
            try:
                key = taintmap.serialized_key(serialized)
            except TaintMapError:
                return STATUS_BAD_REQUEST, b""
            with self._lock:
                bound = self._by_key.get(key)
                new_gid = gid not in self._by_gid
                if gid == 0 or bound != (None if new_gid else gid):
                    return STATUS_BAD_REQUEST, b""
                if new_gid:
                    self._by_key[key] = gid
                    self._by_gid[gid] = serialized
                    # Continue the sequence after promotion.
                    self._next_gid = max(self._next_gid, gid + 1)
                    self._persist_entry_locked(gid, serialized)
            if new_gid:
                self._maybe_snapshot()
            return STATUS_OK, b""
        return super()._handle(op, payload)


class ReplicatedTaintMapServer(TaintMapServer):
    """A primary that synchronously replicates allocations to a standby.

    Replication failures are tolerated (the standby may be down); the
    primary keeps serving, which matches the paper's best-effort framing.
    """

    def __init__(
        self,
        kernel: SimKernel,
        ip: str,
        port: int,
        standby: Address,
        service_time: float = 0.0,
        store=None,
    ):
        super().__init__(kernel, ip, port, service_time, store=store)
        self._standby_address = standby
        self._standby_lock = threading.Lock()
        self._standby_endpoint: Optional[TcpEndpoint] = None
        self.replicated = 0
        self.replication_failures = 0

    def stop(self) -> None:
        super().stop()
        # Close the replication connection too, or the standby keeps a
        # connection thread blocked on it until its idle timeout.
        with self._standby_lock:
            self._close_standby()

    def _close_standby(self) -> None:
        endpoint, self._standby_endpoint = self._standby_endpoint, None
        if endpoint is not None:
            endpoint.close()

    def _allocated(self, gid: int, serialized: bytes) -> None:
        """Replicate each new allocation to the standby before it is
        acknowledged."""
        payload = struct.pack(">I", gid) + serialized
        with self._standby_lock:
            try:
                if self._standby_endpoint is None or self._standby_endpoint.closed:
                    if not self._running:  # stopped: never redial the standby
                        self.replication_failures += 1
                        return
                    self._standby_endpoint = self._kernel.connect(
                        self.address[0], self._standby_address
                    )
                status, _ = round_trip(self._standby_endpoint, OP_SYNC, payload)
                if status == STATUS_OK:
                    self.replicated += 1
                else:
                    self.replication_failures += 1
            except Exception:
                self.replication_failures += 1
                self._close_standby()


class FailoverTaintMapClient(TaintMapClient):
    """A client that falls back to the standby when the primary dies.

    ``primary`` and ``standby`` are each one ``(ip, port)``; the replica
    list widens from ``[primary]`` to ``[primary, standby]`` and the
    transport rotates through it.  A broken multiplexed connection fails
    every request in flight on it with a transport error, and each
    request's caller re-sends its own frame on the standby (registration
    and lookup are idempotent, so the retry is safe).  A connection found
    dead at send time is first redialed once on the same replica, so an
    idle drop is not mistaken for a dead primary.

    Deadline errors (:class:`~repro.errors.TaintMapDeadlineError`) are
    raised to the waiting caller, *outside* the per-replica retry: a
    request that times out is surfaced rather than replayed against the
    standby — by then the caller has already waited the full deadline.
    A reply that arrives later is read and dropped by whichever caller
    holds the read turn, so the framing stays in step.
    """

    def __init__(
        self,
        node,
        primary: Address,
        standby: Address,
        cache_enabled: bool = True,
        request_deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
    ):
        super().__init__(node, primary, cache_enabled, request_deadline_s)
        self._replicas.append(standby)

    @property
    def active_address(self) -> Address:
        """The replica requests currently go to."""
        return self._replicas[self._active]
