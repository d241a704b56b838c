"""The DisTA agent — the ``-javaagent:DisTA.jar`` equivalent (§III, §V-E).

Attaching the agent to a node is the moral equivalent of launching that
JVM with DisTA's two flags: it connects the node to the Taint Map and
replaces the network-communication JNI methods on the node's
:class:`~repro.jre.jni.JniTable` with the wrappers of
:mod:`repro.core.wrappers`.

:data:`INSTRUMENTED_METHODS` reproduces paper Table I: the 23 method
descriptors DisTA instruments, each with its wrapper type.  Several
descriptors share one simulated patch target (e.g. the JDK has separate
Linux/Windows AIO implementations; our simulated JRE has one dispatcher
surface), and the two ``readv0``/``writev0`` vector variants are covered
because their (unpatched) bodies call the patched scalar methods — the
same effect as the paper wrapping each entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.core import wrappers
from repro.core.config import DisTAConfig
from repro.core.taintmap import TaintMapClient
from repro.errors import InstrumentationError


@dataclass(frozen=True)
class InstrumentedMethod:
    """One row of paper Table I."""

    java_class: str
    method: str
    wrapper_type: int
    #: JniTable attribute patched for this descriptor; ``None`` when the
    #: descriptor is covered via another entry (see module docstring).
    patch_target: Optional[str]
    covered_by: Optional[str] = None


INSTRUMENTED_METHODS: tuple[InstrumentedMethod, ...] = (
    # -- Type 1: stream oriented (TCP) --------------------------------- #
    InstrumentedMethod("java.net.SocketInputStream", "socketRead0", 1, "socket_read0"),
    InstrumentedMethod("java.net.SocketOutputStream", "socketWrite0", 1, "socket_write0"),
    InstrumentedMethod("java.net.SocketInputStream", "socketAvailable", 1, "socket_available"),
    InstrumentedMethod(
        "sun.tools.attach.LinuxVirtualMachine", "read", 1, None, "socket_read0"
    ),
    InstrumentedMethod(
        "sun.tools.attach.LinuxVirtualMachine", "write", 1, None, "socket_write0"
    ),
    # -- Type 2: packet oriented (UDP) ----------------------------------- #
    InstrumentedMethod("java.net.PlainDatagramSocketImpl", "send", 2, "datagram_send"),
    InstrumentedMethod("java.net.PlainDatagramSocketImpl", "receive0", 2, "datagram_receive0"),
    InstrumentedMethod("java.net.PlainDatagramSocketImpl", "peekData", 2, "datagram_peek_data"),
    # -- Type 3: direct buffer oriented (NIO/AIO) -------------------------- #
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "read0", 3, "disp_read0"),
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "write0", 3, "disp_write0"),
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "readv0", 3, None, "disp_read0"),
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "writev0", 3, None, "disp_write0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "read0", 3, "dgram_disp_read0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "write0", 3, "dgram_disp_write0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "readv0", 3, None, "dgram_disp_read0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "writev0", 3, None, "dgram_disp_write0"),
    InstrumentedMethod("sun.nio.ch.DatagramChannelImpl", "send0", 3, "dgram_channel_send0"),
    InstrumentedMethod("sun.nio.ch.DatagramChannelImpl", "receive0", 3, "dgram_channel_receive0"),
    InstrumentedMethod("java.nio.DirectByteBuffer", "get", 3, "direct_get"),
    InstrumentedMethod("java.nio.DirectByteBuffer", "put", 3, "direct_put"),
    InstrumentedMethod(
        "sun.nio.ch.IOUtil", "writeFromNativeBuffer", 3, None, "disp_write0"
    ),
    InstrumentedMethod(
        "sun.nio.ch.IOUtil", "readIntoNativeBuffer", 3, None, "disp_read0"
    ),
    InstrumentedMethod(
        "sun.nio.ch.WindowsAsynchronousSocketChannelImpl", "implRead/implWrite", 3, None,
        "disp_read0",
    ),
)

#: patch target → (wrapper type, factory constructor).
_WRAPPER_FACTORIES_BY_TYPE = {
    "socket_read0": (1, wrappers.make_socket_read0),
    "socket_write0": (1, wrappers.make_socket_write0),
    "socket_available": (1, wrappers.make_socket_available),
    "datagram_send": (2, wrappers.make_datagram_send),
    "datagram_receive0": (2, wrappers.make_datagram_receive0),
    "datagram_peek_data": (2, wrappers.make_datagram_peek_data),
    "disp_read0": (3, wrappers.make_disp_read0),
    "disp_write0": (3, wrappers.make_disp_write0),
    "dgram_disp_read0": (3, partial(
        wrappers.make_dgram_receive, method="dgram_dispatcher.read0", with_source=False,
    )),
    "dgram_disp_write0": (3, partial(wrappers.make_dgram_send, method="dgram_dispatcher.write0")),
    "dgram_channel_send0": (3, partial(wrappers.make_dgram_send, method="dgram_channel.send0")),
    "dgram_channel_receive0": (3, partial(
        wrappers.make_dgram_receive, method="dgram_channel.receive0", with_source=True,
    )),
    "direct_get": (3, wrappers.make_direct_get),
    "direct_put": (3, wrappers.make_direct_put),
}


def instrumented_method_count() -> int:
    """The paper's headline: 23 instrumented methods."""
    return len(INSTRUMENTED_METHODS)


class DisTAAgent:
    """Attaches DisTA's inter-node tracking to a simulated JVM.

    ``config`` carries every knob (:class:`~repro.core.config.DisTAConfig`;
    default: ``DisTAConfig()``), and ``extensions`` are user
    :class:`~repro.core.extensions.ExtensionPoint` objects for
    system-specific native methods (paper §VI).
    """

    def __init__(
        self,
        taint_map_address,
        config: Optional[DisTAConfig] = None,
        extensions: tuple = (),
    ):
        #: The Taint Map server's ``(ip, port)``.
        self.taint_map_address = taint_map_address
        self.config = config if config is not None else DisTAConfig()
        self.extensions = tuple(extensions)

    def attach(self, node) -> wrappers.DisTARuntime:
        """Patch every instrumentation point on ``node``'s JNI table."""
        if node.jni.instrumented:
            raise InstrumentationError(f"node {node.name} is already instrumented")
        config = self.config
        client = TaintMapClient(
            node,
            self.taint_map_address,
            config.cache_enabled,
            request_deadline_s=config.request_deadline_s,
        )
        runtime = wrappers.DisTARuntime(node, client, config.byte_granularity)
        for target, (wrapper_type, factory) in _WRAPPER_FACTORIES_BY_TYPE.items():
            if wrapper_type not in config.wrapper_types:
                continue
            node.jni.patch(target, factory(runtime))
        for extension in self.extensions:
            if extension.name in node.jni._extensions:
                node.jni.patch(extension.name, extension.build(runtime))
        node.taintmap = client
        return runtime

    def detach(self, node) -> None:
        node.jni.unpatch_all()
        if node.taintmap is not None:
            node.taintmap.close()
            node.taintmap = None
