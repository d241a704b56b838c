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
    STATUS_BAD_REQUEST,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    _recv_exact,
    _send_frame,
)
from repro.runtime.kernel import Address, SimKernel, TcpEndpoint

#: Replication opcode: payload = 4-byte GID + serialized tag set.
OP_SYNC = 3


class StandbyTaintMapServer(TaintMapServer):
    """A replica that accepts verbatim GID allocations from the primary."""

    def _handle(self, op: int, payload: bytes) -> tuple[int, bytes]:
        if op == OP_SYNC:
            # Validated like OP_REGISTER: a malformed frame is answered,
            # never allowed to close the primary's connection.
            if len(payload) < 4:
                return STATUS_BAD_REQUEST, b""
            (gid,) = struct.unpack(">I", payload[:4])
            serialized = payload[4:]
            try:
                key = taintmap.taint_key(
                    frozenset(taintmap.deserialize_tags(serialized))
                )
            except Exception:
                return STATUS_BAD_REQUEST, b""
            with self._lock:
                new_gid = gid not in self._by_gid
                self._by_key[key] = gid
                self._by_gid[gid] = serialized
                # Continue the sequence after promotion.
                self._next_gid = max(self._next_gid, gid + 1)
                if new_gid:
                    self._persist_entry_locked(gid, serialized)
            if new_gid:
                # Keep the population counter in sync with the state the
                # sync stream installs: a promoted standby must report
                # the same global_taints the primary did, not 0.
                with self.stats._lock:
                    self.stats.global_taints += 1
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
        snapshot_every: Optional[int] = None,
    ):
        super().__init__(
            kernel,
            ip,
            port,
            service_time,
            store=store,
            snapshot_every=snapshot_every,
        )
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
                _send_frame(self._standby_endpoint, bytes([OP_SYNC]), payload)
                status = _recv_exact(self._standby_endpoint, 1)[0]
                (length,) = struct.unpack(">I", _recv_exact(self._standby_endpoint, 4))
                if length:
                    _recv_exact(self._standby_endpoint, length)
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
    every request in flight on it with a transport error, and the caller
    that finds it dead re-sends each of them on the standby (registration
    and lookup are idempotent, so the retry is safe).  A connection found
    dead at send time is first redialed once on the same replica, so an
    idle drop is not mistaken for a dead primary.

    Deadline errors (:class:`~repro.errors.TaintMapDeadlineError`) are
    raised to the waiting caller, *outside* the per-replica retry: a
    request that times out is surfaced rather than replayed against the
    standby — by then the caller has already waited the full deadline.
    The batch that carried it still settles for the other callers
    waiting on it, whichever of them reads its reply or fails it over.
    """

    def __init__(
        self,
        node,
        primary: Address,
        standby: Address,
        cache_enabled: bool = True,
        **options,
    ):
        super().__init__(node, primary, cache_enabled, **options)
        self._replicas.append(standby)

    @property
    def active_address(self) -> Address:
        """The replica requests currently go to."""
        return self._replicas[self._active]
