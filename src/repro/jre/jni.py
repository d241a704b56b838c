"""The per-JVM JNI method table — DisTA's instrumentation point.

Every network communication method in the (simulated) JRE bottoms out in
one of the methods on :class:`JniTable`, exactly as every real JRE I/O
class bottoms out in the 23 JNI methods of paper Table I.  The table is
*per node* (per JVM) and its entries are plain attributes, so the DisTA
agent can replace them with wrappers at attach time — the Python analogue
of rewriting the JNI call sites with ASM.

The **unpatched** semantics below are those of an uninstrumented JRE: the
kernel carries plain bytes, and any shadow labels on outgoing data are
dropped at the boundary.  Received data comes back with empty labels,
which is observably identical to Phosphor's naive native-method summary
(paper Fig. 4): the receive buffer's (empty) parameter taint is what the
message ends up carrying.  Running a cluster in ``Mode.PHOSPHOR``
therefore reproduces the motivating unsoundness without extra code.

Method grouping mirrors §III-C:

* **Type 1 (stream oriented)** — ``socket_read0`` / ``socket_write0``.
* **Type 2 (packet oriented)** — ``datagram_send`` / ``datagram_receive0``
  / ``datagram_peek_data``.
* **Type 3 (direct buffer oriented)** — the ``FileDispatcherImpl`` and
  ``DatagramDispatcherImpl`` read/write families plus ``DirectByteBuffer``
  get/put, which move bytes between the Java heap and native memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import InstrumentationError, SimTimeout
from repro.runtime.kernel import TcpEndpoint, UdpEndpoint
from repro.runtime.pipes import DEFAULT_TIMEOUT
from repro.taint.values import LabelRuns, TByteArray, TBytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jre.buffer import NativeMemory
    from repro.jre.datagram_api import DatagramPacket

#: Sentinel return codes matching the JDK's sun.nio.ch.IOStatus.
EOF = -1
UNAVAILABLE = -2

#: Patchable JNI method names, grouped as in paper Table I.
PATCHABLE_METHODS = (
    "socket_read0",
    "socket_write0",
    "socket_available",
    "datagram_send",
    "datagram_receive0",
    "datagram_peek_data",
    "disp_read0",
    "disp_write0",
    "disp_readv0",
    "disp_writev0",
    "dgram_disp_read0",
    "dgram_disp_write0",
    "dgram_channel_send0",
    "dgram_channel_receive0",
    "direct_get",
    "direct_put",
)


class JniTable:
    """The JNI dispatch table of one simulated JVM."""

    def __init__(self, node) -> None:
        self.node = node
        #: Shadow labels for native memory blocks, keyed by address; each
        #: value is a :class:`~repro.taint.values.LabelRuns` sized to the
        #: block.  Only DisTA wrappers populate this (uninstrumented JVMs
        #: have no notion of taint in native memory).
        self.native_shadow: dict[int, LabelRuns] = {}
        self._patched: dict[str, object] = {}
        #: User-registered native methods (paper §VI extension point).
        self._extensions: set[str] = set()

    # ------------------------------------------------------------------ #
    # Patching API used by the DisTA agent
    # ------------------------------------------------------------------ #

    def register_extension(self, name: str, fn) -> None:
        """Register a system-specific native method (paper §VI).

        The method becomes a first-class instrumentation point: callable
        as ``jni.<name>(...)`` and patchable by the agent like the 23
        built-in descriptors."""
        if hasattr(self, name):
            raise InstrumentationError(f"JNI method name {name!r} already exists")
        setattr(self, name, fn)
        self._extensions.add(name)

    def patch(self, method: str, wrapper) -> None:
        """Replace ``method`` with ``wrapper`` (receives the original)."""
        if method not in PATCHABLE_METHODS and method not in self._extensions:
            raise InstrumentationError(f"{method} is not a JNI instrumentation point")
        if method in self._patched:
            raise InstrumentationError(f"{method} already instrumented on {self.node.name}")
        original = getattr(self, method)
        self._patched[method] = original
        setattr(self, method, wrapper(original))

    def unpatch_all(self) -> None:
        for method, original in self._patched.items():
            setattr(self, method, original)
        self._patched.clear()

    @property
    def instrumented(self) -> bool:
        return bool(self._patched)

    # ------------------------------------------------------------------ #
    # Type 1: stream oriented (TCP)
    # ------------------------------------------------------------------ #

    def socket_write0(self, fd: TcpEndpoint, data: TBytes) -> None:
        """``SocketOutputStream.socketWrite0``: blocking full write.

        Shadow labels on ``data`` are dropped here — the kernel carries
        plain bytes (Fig. 1, dashed arrow).
        """
        fd.send_all(data.data)

    def socket_read0(
        self,
        fd: TcpEndpoint,
        buf: TByteArray,
        offset: int,
        length: int,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> int:
        """``SocketInputStream.socketRead0``: blocking partial read.

        Returns the byte count (0 for a zero-length request), or ``EOF``.
        Received bytes carry empty labels: the true taint stayed on the
        sending node.
        """
        length = min(length, len(buf) - offset)
        if length <= 0:
            return 0
        chunk = fd.recv(length, timeout)
        if not chunk:
            return EOF
        buf.write(offset, TBytes.raw(chunk))
        return len(chunk)

    def socket_available(self, fd: TcpEndpoint) -> int:
        """``SocketInputStream.socketAvailable``."""
        return fd._rx.available()

    # ------------------------------------------------------------------ #
    # Type 2: packet oriented (UDP)
    # ------------------------------------------------------------------ #

    def datagram_send(self, fd: UdpEndpoint, packet: "DatagramPacket") -> None:
        """``PlainDatagramSocketImpl.send``."""
        fd.sendto(packet.payload().data, packet.socket_address())

    def datagram_receive0(
        self, fd: UdpEndpoint, packet: "DatagramPacket", timeout: float = DEFAULT_TIMEOUT
    ) -> None:
        """``PlainDatagramSocketImpl.receive0``: fills ``packet`` in place,
        truncating to the packet's buffer size (standard UDP semantics —
        the root of the paper's mismatched-length problem, §III-D)."""
        data, source = fd.recvfrom(timeout)
        packet.fill_from_wire(TBytes.raw(data), source)

    def datagram_peek_data(
        self, fd: UdpEndpoint, packet: "DatagramPacket", timeout: float = DEFAULT_TIMEOUT
    ) -> int:
        """``PlainDatagramSocketImpl.peekData``: like receive0 but keeps
        the datagram queued.  Returns the sender port."""
        data, source = fd.box.peek(timeout)
        packet.fill_from_wire(TBytes.raw(data), source)
        return source[1]

    # ------------------------------------------------------------------ #
    # Type 3: direct buffer oriented (NIO / AIO dispatchers)
    # ------------------------------------------------------------------ #

    def disp_read0(
        self,
        fd: TcpEndpoint,
        mem: "NativeMemory",
        position: int,
        count: int,
        blocking: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> int:
        """``FileDispatcherImpl.read0`` (via SocketDispatcher on Linux)."""
        if blocking:
            chunk = fd.recv(count, timeout)
            if not chunk:
                return EOF
        else:
            chunk = fd.recv_nonblocking(count)
            if chunk is None:
                return UNAVAILABLE
            if not chunk:
                return EOF
        mem.write(position, chunk)
        return len(chunk)

    def disp_write0(
        self,
        fd: TcpEndpoint,
        mem: "NativeMemory",
        position: int,
        count: int,
        blocking: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> int:
        """``FileDispatcherImpl.write0``: partial write from native memory."""
        data = mem.read(position, count)
        if blocking:
            return fd.send(data, timeout)
        return fd.send_nonblocking(data)

    def disp_readv0(
        self,
        fd: TcpEndpoint,
        regions: list,
        blocking: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> int:
        """``FileDispatcherImpl.readv0``: scatter read into (mem, pos, count)."""
        total = 0
        for index, (mem, position, count) in enumerate(regions):
            result = self.disp_read0(
                fd, mem, position, count, blocking=(blocking and index == 0), timeout=timeout
            )
            if result == EOF:
                return EOF if total == 0 else total
            if result == UNAVAILABLE:
                return UNAVAILABLE if total == 0 else total
            total += result
            if result < count:
                break
        return total

    def disp_writev0(
        self,
        fd: TcpEndpoint,
        regions: list,
        blocking: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> int:
        """``FileDispatcherImpl.writev0``: gather write."""
        total = 0
        for mem, position, count in regions:
            written = self.disp_write0(fd, mem, position, count, blocking, timeout)
            total += written
            if written < count:
                break
        return total

    def dgram_disp_read0(
        self,
        fd: UdpEndpoint,
        mem: "NativeMemory",
        position: int,
        count: int,
        blocking: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> int:
        """``DatagramDispatcherImpl.read0`` (connected DatagramChannel)."""
        try:
            data, _ = fd.recvfrom(timeout if blocking else 0.001)
        except SimTimeout:
            if blocking:
                raise
            return UNAVAILABLE
        data = data[:count]  # excess datagram bytes are discarded (UDP)
        mem.write(position, data)
        return len(data)

    def dgram_disp_write0(
        self,
        fd: UdpEndpoint,
        mem: "NativeMemory",
        position: int,
        count: int,
        destination: tuple,
    ) -> int:
        """``DatagramDispatcherImpl.write0`` (connected DatagramChannel)."""
        return fd.sendto(mem.read(position, count), destination)

    def dgram_channel_send0(
        self,
        fd: UdpEndpoint,
        mem: "NativeMemory",
        position: int,
        count: int,
        destination: tuple,
    ) -> int:
        """``DatagramChannelImpl.send0`` (unconnected send)."""
        return fd.sendto(mem.read(position, count), destination)

    def dgram_channel_receive0(
        self,
        fd: UdpEndpoint,
        mem: "NativeMemory",
        position: int,
        count: int,
        blocking: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> tuple[int, Optional[tuple]]:
        """``DatagramChannelImpl.receive0``: returns (count, source)."""
        try:
            data, source = fd.recvfrom(timeout if blocking else 0.001)
        except SimTimeout:
            if blocking:
                raise
            return UNAVAILABLE, None
        data = data[:count]
        mem.write(position, data)
        return len(data), source

    # ------------------------------------------------------------------ #
    # Type 3: heap <-> native memory moves (DirectByteBuffer)
    # ------------------------------------------------------------------ #

    def direct_get(
        self,
        mem: "NativeMemory",
        position: int,
        dst: TByteArray,
        dst_offset: int,
        length: int,
    ) -> None:
        """``DirectByteBuffer.get(byte[])``: native memory → heap array.

        Uninstrumented: the bytes arrive with empty labels (native memory
        has no shadow in a stock JRE)."""
        dst.write(dst_offset, TBytes(mem.read(position, length)))

    def direct_put(
        self,
        mem: "NativeMemory",
        position: int,
        src: TBytes,
    ) -> None:
        """``DirectByteBuffer.put(byte[])``: heap array → native memory.

        Uninstrumented: shadow labels on ``src`` are dropped."""
        mem.write(position, src.data)
