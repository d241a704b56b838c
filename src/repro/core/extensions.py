"""User extensions for system-specific native communication (paper §VI).

    "distributed system developers can design their own native
    communication libraries and corresponding JNI methods … To support
    these methods, users can follow the three instrumentation ways and
    extend our instrumentation interfaces to instrument them."

This module is that interface.  A custom native method registers itself
on the per-JVM :class:`~repro.jre.jni.JniTable` (so it exists whether or
not DisTA is attached), and an :class:`ExtensionPoint` tells the agent
which of the three wrapper types to apply:

* ``STREAM`` — the method moves a byte stream over a
  :class:`~repro.runtime.kernel.TcpEndpoint`, with the
  ``socketWrite0``/``socketRead0`` contracts;
* ``PACKET`` — the method moves whole datagrams:
  ``send(fd, data, destination)`` and ``receive(fd) -> (data, source)``
  over a :class:`~repro.runtime.kernel.UdpEndpoint`;
* custom — supply your own wrapper factory, receiving the
  :class:`~repro.core.wrappers.DisTARuntime`.

``STREAM`` and ``PACKET`` methods run the built-in Type-1 and Type-2
wrapper bodies, labelled with the method's name, so their crossings
reach the same telemetry, crossing trace and lineage as the built-in
methods' (``dista_jni_calls_total{method="<name>"}``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.wrappers import (
    DisTARuntime,
    make_cell_receive,
    make_cell_send,
    unwrap_datagram,
    wrap_datagram,
)
from repro.errors import InstrumentationError
from repro.taint.values import TBytes


class WrapperType(enum.Enum):
    """Which of the paper's three instrumentation ways to apply."""

    STREAM = 1
    PACKET = 2
    CUSTOM = 3


@dataclass(frozen=True)
class ExtensionPoint:
    """One user-registered native method and how to instrument it.

    ``direction`` is ``"send"`` or ``"receive"``; for ``CUSTOM`` wrapper
    types, ``factory(runtime)`` must return the usual
    ``wrapper(original) -> patched`` callable.
    """

    name: str
    wrapper_type: WrapperType
    direction: str = "send"
    factory: Optional[Callable[[DisTARuntime], Callable]] = None

    def build(self, runtime: DisTARuntime) -> Callable:
        if self.wrapper_type is WrapperType.CUSTOM:
            if self.factory is None:
                raise InstrumentationError(
                    f"extension {self.name}: CUSTOM type requires a factory"
                )
            return self.factory(runtime)
        if self.wrapper_type is WrapperType.STREAM:
            if self.direction == "send":
                return make_cell_send(runtime, self.name)
            return make_cell_receive(runtime, self.name)
        if self.direction == "send":
            return _make_packet_send(runtime, self.name)
        return _make_packet_receive(runtime, self.name)


def _make_packet_send(runtime: DisTARuntime, method: str):
    """Type-2 sender: ``original(fd, data, destination)`` with whole
    datagrams; the payload is enveloped."""

    def wrapper(original):
        def patched(fd, data: TBytes, destination, *args, **kwargs):
            sealed = wrap_datagram(runtime, method, data, destination)
            return original(fd, sealed, destination, *args, **kwargs)

        return patched

    return wrapper


def _make_packet_receive(runtime: DisTARuntime, method: str):
    """Type-2 receiver: ``original(fd) -> (data, source)``."""

    def wrapper(original):
        def patched(fd, *args, **kwargs):
            data, source = original(fd, *args, **kwargs)
            raw = data if isinstance(data, TBytes) else TBytes.raw(bytes(data))
            return unwrap_datagram(runtime, method, raw, fd), source

        return patched

    return wrapper
