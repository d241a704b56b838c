"""The simulated operating system: nodes, TCP, UDP, and wire accounting.

One :class:`SimKernel` instance is "the network + every node's kernel" of
a simulated cluster.  It implements the system-call surface the JNI layer
needs (``NET_SEND`` / ``NET_READ`` in paper Fig. 1): connection setup,
blocking byte-stream transfer, datagram delivery.  Everything it carries
is plain ``bytes`` — shadow taints cannot cross it, by construction.

Wire-byte accounting feeds the §V-F network-overhead measurement (DisTA's
per-byte Global-ID encoding should come out at ~5× raw traffic).
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional

from repro.errors import (
    AddressInUse,
    ConnectionRefused,
    NoRouteToHost,
    PipeClosed,
    SimTimeout,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime.pipes import DEFAULT_TIMEOUT, BytePipe, DatagramBox

Address = tuple[str, int]

#: Maximum UDP payload the simulated kernel will carry.
MAX_DATAGRAM = 65507


class NetStats:
    """Byte counters grouped by the passive (server-side) address."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.tcp_bytes: dict[Address, int] = {}
        self.udp_bytes: dict[Address, int] = {}
        if metrics is None:
            metrics = MetricsRegistry()
        bytes_family = metrics.counter(
            "sim_kernel_bytes_total",
            "Bytes the simulated kernel carried, by protocol.",
            ("proto",),
        )
        self._tcp_bytes_child = bytes_family.labels(proto="tcp")
        self._udp_bytes_child = bytes_family.labels(proto="udp")
        reads_family = metrics.counter(
            "sim_kernel_reads_total",
            "TCP pipe reads by completeness (full/partial/eof).",
            ("kind",),
        )
        self._reads = {
            kind: reads_family.labels(kind=kind) for kind in ("full", "partial", "eof")
        }

    def record_tcp(self, server: Address, count: int) -> None:
        with self._lock:
            self.tcp_bytes[server] = self.tcp_bytes.get(server, 0) + count
        self._tcp_bytes_child.inc(count)

    def record_udp(self, destination: Address, count: int) -> None:
        with self._lock:
            self.udp_bytes[destination] = self.udp_bytes.get(destination, 0) + count
        self._udp_bytes_child.inc(count)

    def record_read(self, requested: int, chunk: bytes) -> None:
        """Classify one TCP read: EOF, partial fill, or full fill."""
        if not chunk:
            kind = "eof"
        elif len(chunk) < requested:
            kind = "partial"
        else:
            kind = "full"
        self._reads[kind].inc()

    def total_tcp(self, exclude: tuple[Address, ...] = ()) -> int:
        with self._lock:
            return sum(v for k, v in self.tcp_bytes.items() if k not in exclude)

    def total_udp(self) -> int:
        with self._lock:
            return sum(self.udp_bytes.values())

    def total(self, exclude: tuple[Address, ...] = ()) -> int:
        return self.total_tcp(exclude) + self.total_udp()


class TcpEndpoint:
    """One end of an established TCP connection (a connected socket fd)."""

    def __init__(
        self,
        kernel: "SimKernel",
        local: Address,
        remote: Address,
        server: Address,
        rx: BytePipe,
        tx: BytePipe,
    ):
        self._kernel = kernel
        self.local_address = local
        self.remote_address = remote
        #: The passive address of this connection, for stats grouping.
        self.server_address = server
        self._rx = rx
        self._tx = tx
        self._closed = False
        self._close_callbacks: list = []

    # -- blocking system calls ------------------------------------------- #

    def send(self, data: bytes, timeout: float = DEFAULT_TIMEOUT) -> int:
        """``NET_SEND``: blocking partial write."""
        count = self._tx.write(bytes(data), timeout)
        self._kernel.stats.record_tcp(self.server_address, count)
        return count

    def send_all(self, data: bytes, timeout: float = DEFAULT_TIMEOUT) -> int:
        sent = 0
        data = bytes(data)
        while sent < len(data):
            sent += self.send(data[sent:], timeout)
        return sent

    def recv(self, max_bytes: int, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        """``NET_READ``: blocking partial read; ``b""`` is EOF."""
        chunk = self._rx.read(max_bytes, timeout)
        self._kernel.stats.record_read(max_bytes, chunk)
        return chunk

    # -- non-blocking variants (for the NIO selector layer) --------------- #

    def recv_nonblocking(self, max_bytes: int) -> Optional[bytes]:
        """Returns ``None`` when no data is ready, ``b""`` at EOF."""
        if self._rx.available() == 0:
            if self._rx.at_eof():
                self._kernel.stats.record_read(max_bytes, b"")
                return b""
            return None
        try:
            chunk = self._rx.read(max_bytes, timeout=0.001)
        except SimTimeout:
            return None
        self._kernel.stats.record_read(max_bytes, chunk)
        return chunk

    # -- span correlation keys --------------------------------------------- #
    #
    # Both TcpEndpoint ends of one connection share the same BytePipe
    # objects (the sender's _tx IS the receiver's _rx), so the pipe's
    # identity names the wire channel on both nodes — the key the
    # lineage store uses to pair a tainted send with its receive.

    @property
    def send_channel(self) -> tuple:
        return ("tcp", id(self._tx))

    @property
    def receive_channel(self) -> tuple:
        return ("tcp", id(self._rx))

    def send_nonblocking(self, data: bytes) -> int:
        """Returns 0 when the send buffer is full."""
        try:
            count = self._tx.write(bytes(data), timeout=0.001)
        except SimTimeout:
            return 0
        self._kernel.stats.record_tcp(self.server_address, count)
        return count

    def readable(self) -> bool:
        return self._rx.available() > 0 or self._rx.at_eof()

    def writable(self) -> bool:
        return not self._tx.write_closed

    # -- lifecycle --------------------------------------------------------- #

    def add_close_callback(self, callback) -> None:
        """Run ``callback`` once when this endpoint closes.

        Fires immediately if the endpoint is already closed.  The agent
        runtime uses this to evict per-fd decoder state the moment a
        connection dies, so a recycled ``id(fd)`` can never inherit it.
        """
        if self._closed:
            callback()
            return
        self._close_callbacks.append(callback)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._tx.close_write()
        self._rx.close_read()
        callbacks, self._close_callbacks = self._close_callbacks, []
        for callback in callbacks:
            callback()

    def shutdown_output(self) -> None:
        self._tx.close_write()

    @property
    def closed(self) -> bool:
        return self._closed


class TcpListener:
    """A listening socket: queue of established-but-unaccepted connections."""

    def __init__(self, kernel: "SimKernel", address: Address, backlog: int = 64):
        self._kernel = kernel
        self.address = address
        self._backlog = backlog
        self._queue: list[TcpEndpoint] = []
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False

    def _enqueue(self, endpoint: TcpEndpoint) -> bool:
        with self._lock:
            if self._closed or len(self._queue) >= self._backlog:
                return False
            self._queue.append(endpoint)
            self._ready.notify_all()
            return True

    def accept(self, timeout: float = DEFAULT_TIMEOUT) -> TcpEndpoint:
        with self._lock:
            while not self._queue:
                if self._closed:
                    raise PipeClosed("listener closed")
                if not self._ready.wait(timeout):
                    raise SimTimeout(f"accept timed out on {self.address}")
            return self._queue.pop(0)

    def accept_nonblocking(self) -> Optional[TcpEndpoint]:
        with self._lock:
            if self._queue:
                return self._queue.pop(0)
            return None

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._ready.notify_all()
        self._kernel._release_tcp(self.address)

    @property
    def closed(self) -> bool:
        return self._closed


class UdpEndpoint:
    """A bound UDP socket."""

    def __init__(self, kernel: "SimKernel", address: Address):
        self._kernel = kernel
        self.address = address
        self.box = DatagramBox()
        self._closed = False

    def sendto(self, data: bytes, destination: Address) -> int:
        if len(data) > MAX_DATAGRAM:
            raise ValueError(f"datagram of {len(data)} bytes exceeds {MAX_DATAGRAM}")
        return self._kernel._udp_deliver(bytes(data), self.address, destination)

    def recvfrom(self, timeout: float = DEFAULT_TIMEOUT) -> tuple[bytes, Address]:
        return self.box.receive(timeout)

    def pending(self) -> int:
        return self.box.pending()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.box.close()
        self._kernel._release_udp(self.address)


class SimKernel:
    """The shared OS/network of one simulated cluster."""

    def __init__(self, name: str = "sim", pipe_capacity: int = 256 * 1024):
        self.name = name
        self._pipe_capacity = pipe_capacity
        self._lock = threading.Lock()
        self._nodes: set[str] = set()
        self._listeners: dict[Address, TcpListener] = {}
        self._udp: dict[Address, UdpEndpoint] = {}
        self._next_ephemeral = itertools.count(49152)
        #: Kernel-level telemetry (wire bytes, read completeness).
        self.metrics = MetricsRegistry({"node": f"{name}-kernel"})
        self.stats = NetStats(self.metrics)

    # -- node / address management ----------------------------------------- #

    def register_node(self, ip: str) -> str:
        with self._lock:
            if ip in self._nodes:
                raise AddressInUse(f"node ip {ip} already registered")
            self._nodes.add(ip)
        return ip

    def has_node(self, ip: str) -> bool:
        with self._lock:
            return ip in self._nodes

    def _ephemeral_port(self) -> int:
        return next(self._next_ephemeral)

    # -- TCP ----------------------------------------------------------------- #

    def listen(self, ip: str, port: int, backlog: int = 64) -> TcpListener:
        address = (ip, port)
        with self._lock:
            if ip not in self._nodes:
                raise NoRouteToHost(f"unknown node {ip}")
            if address in self._listeners:
                raise AddressInUse(f"tcp {address} already bound")
            listener = TcpListener(self, address, backlog)
            self._listeners[address] = listener
            return listener

    def connect(
        self, src_ip: str, destination: Address, timeout: float = DEFAULT_TIMEOUT
    ) -> TcpEndpoint:
        with self._lock:
            if src_ip not in self._nodes:
                raise NoRouteToHost(f"unknown source node {src_ip}")
            if destination[0] not in self._nodes:
                raise NoRouteToHost(f"unknown destination {destination[0]}")
            listener = self._listeners.get(destination)
            local = (src_ip, self._ephemeral_port())
        if listener is None or listener.closed:
            raise ConnectionRefused(f"nothing listening on {destination}")
        client_to_server = BytePipe(self._pipe_capacity)
        server_to_client = BytePipe(self._pipe_capacity)
        client_end = TcpEndpoint(
            self, local, destination, destination, rx=server_to_client, tx=client_to_server
        )
        server_end = TcpEndpoint(
            self, destination, local, destination, rx=client_to_server, tx=server_to_client
        )
        if not listener._enqueue(server_end):
            raise ConnectionRefused(f"backlog full / listener closed on {destination}")
        return client_end

    def _release_tcp(self, address: Address) -> None:
        with self._lock:
            self._listeners.pop(address, None)

    # -- UDP ----------------------------------------------------------------- #

    def udp_bind(self, ip: str, port: Optional[int] = None) -> UdpEndpoint:
        with self._lock:
            if ip not in self._nodes:
                raise NoRouteToHost(f"unknown node {ip}")
            if port is None:
                port = self._ephemeral_port()
            address = (ip, port)
            if address in self._udp:
                raise AddressInUse(f"udp {address} already bound")
            endpoint = UdpEndpoint(self, address)
            self._udp[address] = endpoint
            return endpoint

    def _udp_deliver(self, data: bytes, source: Address, destination: Address) -> int:
        with self._lock:
            target = self._udp.get(destination)
        self.stats.record_udp(destination, len(data))
        if target is None:
            # Real UDP: silently dropped (no ICMP in this simulation).
            return len(data)
        target.box.deliver(data, source)
        return len(data)

    def _release_udp(self, address: Address) -> None:
        with self._lock:
            self._udp.pop(address, None)
