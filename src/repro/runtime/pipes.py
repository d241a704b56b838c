"""Byte-level transport primitives of the simulated OS.

The kernel moves **plain bytes only**.  This is the central fact the whole
reproduction hinges on: once data crosses ``NET_SEND`` its shadow taints
are gone (paper Fig. 1, dashed arrow), and any inter-node tracking must
encode taint information *into* those bytes — which is what DisTA's JNI
wrappers do.

:class:`BytePipe` models one direction of a TCP connection: a bounded
in-kernel socket buffer with blocking, partially-completing reads and
writes.  :class:`DatagramBox` models a UDP socket's receive queue with
preserved datagram boundaries.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from repro.errors import PipeClosed, SimTimeout

#: Default in-kernel socket buffer size (bytes).
DEFAULT_CAPACITY = 64 * 1024

#: Default blocking-operation timeout; generous, but prevents test hangs.
DEFAULT_TIMEOUT = 30.0


class BytePipe:
    """One direction of a TCP stream: a bounded, blocking byte queue.

    Semantics mirror kernel socket buffers:

    * ``write`` blocks until at least one byte of space exists, then
      transfers as much as fits and returns the count (partial writes).
    * ``read`` blocks until at least one byte is available (or EOF), then
      returns up to ``max_bytes`` — possibly fewer (partial reads).  The
      paper's "mismatched serialized taint length" problem (§III-D.2) is
      a direct consequence of these semantics.
    * closing the write end makes drained readers see EOF.

    The buffer is a queue of the writers' ``bytes`` segments, not one
    ``bytearray``: a write enqueues its bytes without copying them, and
    a read that takes exactly the head segment hands that object over.
    Any other read copies once, into a result sized to what it returns.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, max_segment: Optional[int] = None):
        if capacity <= 0:
            raise ValueError("pipe capacity must be positive")
        self._capacity = capacity
        #: Optional cap on bytes returned per read, to force partial reads.
        self._max_segment = max_segment
        #: Written segments in order; the head one is consumed from
        #: ``_head_offset`` on.  ``_buffered`` counts the unread bytes.
        self._segments: deque = deque()
        self._head_offset = 0
        self._buffered = 0
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)
        self._writable = threading.Condition(self._lock)
        self._write_closed = False
        self._read_closed = False
        self.bytes_transferred = 0

    # -- writer side ----------------------------------------------------- #

    def write(self, data: bytes, timeout: float = DEFAULT_TIMEOUT) -> int:
        """Blocking partial write; returns number of bytes accepted."""
        if not data:
            return 0
        with self._lock:
            if self._write_closed:
                raise PipeClosed("write end already closed")
            while self._buffered >= self._capacity:
                if self._read_closed:
                    raise PipeClosed("peer closed the connection")
                if not self._writable.wait(timeout):
                    raise SimTimeout("pipe write timed out (buffer full)")
                if self._write_closed:
                    raise PipeClosed("write end closed while blocked")
            if self._read_closed:
                raise PipeClosed("peer closed the connection")
            # Slicing all of a ``bytes`` value returns it, so a write that
            # fits is queued without a copy.
            chunk = bytes(data[: self._capacity - self._buffered])
            self._segments.append(chunk)
            self._buffered += len(chunk)
            self.bytes_transferred += len(chunk)
            self._readable.notify_all()
            return len(chunk)

    def write_all(self, data: bytes, timeout: float = DEFAULT_TIMEOUT) -> int:
        """Loop :meth:`write` until every byte is accepted."""
        sent = 0
        while sent < len(data):
            sent += self.write(data[sent:], timeout)
        return sent

    def close_write(self) -> None:
        with self._lock:
            self._write_closed = True
            self._readable.notify_all()
            self._writable.notify_all()

    # -- reader side ----------------------------------------------------- #

    def read(self, max_bytes: int, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        """Blocking partial read; ``b""`` signals EOF."""
        if max_bytes <= 0:
            return b""
        with self._lock:
            while not self._buffered:
                if self._write_closed:
                    return b""
                if self._read_closed:
                    raise PipeClosed("read end already closed")
                if not self._readable.wait(timeout):
                    raise SimTimeout("pipe read timed out (no data)")
            limit = min(max_bytes, self._buffered)
            if self._max_segment is not None:
                limit = min(limit, self._max_segment)
            chunk = self._take(limit)
            self._writable.notify_all()
            return chunk

    def _take(self, count: int) -> bytes:
        """Dequeue the next ``count`` buffered bytes (lock held)."""
        self._buffered -= count
        segments = self._segments
        head = segments[0]
        start = self._head_offset
        end = start + count
        if end < len(head):
            self._head_offset = end
            return head[start:end]
        segments.popleft()
        self._head_offset = 0
        if end == len(head):
            # Slicing all of a ``bytes`` object returns it uncopied.
            return head[start:]
        # Spans segments: one copy, joined from views.
        pieces = [memoryview(head)[start:]]
        count = end - len(head)
        while count >= len(segments[0]):
            head = segments.popleft()
            pieces.append(head)
            count -= len(head)
            if not count:
                return b"".join(pieces)
        self._head_offset = count
        pieces.append(memoryview(segments[0])[:count])
        return b"".join(pieces)

    def read_exact(self, n: int, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        """Read exactly ``n`` bytes; raises :class:`PipeClosed` on EOF."""
        out = bytearray()
        while len(out) < n:
            chunk = self.read(n - len(out), timeout)
            if not chunk:
                raise PipeClosed(f"EOF after {len(out)}/{n} bytes")
            out.extend(chunk)
        return bytes(out)

    def close_read(self) -> None:
        with self._lock:
            self._read_closed = True
            self._segments.clear()
            self._head_offset = self._buffered = 0
            self._readable.notify_all()
            self._writable.notify_all()

    # -- introspection ---------------------------------------------------- #

    def available(self) -> int:
        with self._lock:
            return self._buffered

    @property
    def write_closed(self) -> bool:
        return self._write_closed

    def at_eof(self) -> bool:
        with self._lock:
            return self._write_closed and not self._buffered


class DatagramBox:
    """A UDP socket's receive queue: whole datagrams, bounded, droppable.

    Datagram boundaries are preserved; when the queue is full new
    datagrams are silently dropped, as real UDP does.
    """

    def __init__(self, max_queued: int = 256):
        self._max_queued = max_queued
        self._queue: list[tuple[bytes, tuple[str, int]]] = []
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)
        self._closed = False
        self.dropped = 0
        self.bytes_transferred = 0

    def deliver(self, data: bytes, source: tuple[str, int]) -> bool:
        """Kernel-side delivery. Returns False when the queue overflowed."""
        with self._lock:
            if self._closed:
                return False
            if len(self._queue) >= self._max_queued:
                self.dropped += 1
                return False
            self._queue.append((bytes(data), source))
            self.bytes_transferred += len(data)
            self._readable.notify_all()
            return True

    def receive(self, timeout: float = DEFAULT_TIMEOUT) -> tuple[bytes, tuple[str, int]]:
        """Blocking receive of one whole datagram."""
        with self._lock:
            while not self._queue:
                if self._closed:
                    raise PipeClosed("datagram socket closed")
                if not self._readable.wait(timeout):
                    raise SimTimeout("datagram receive timed out")
            return self._queue.pop(0)

    def peek(self, timeout: float = DEFAULT_TIMEOUT) -> tuple[bytes, tuple[str, int]]:
        """Blocking peek: next datagram without consuming it."""
        with self._lock:
            while not self._queue:
                if self._closed:
                    raise PipeClosed("datagram socket closed")
                if not self._readable.wait(timeout):
                    raise SimTimeout("datagram peek timed out")
            return self._queue[0]

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._queue.clear()
            self._readable.notify_all()

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)
