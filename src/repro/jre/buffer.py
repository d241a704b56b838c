"""``java.nio.ByteBuffer`` — heap and direct variants.

Direct buffers are the crux of the paper's **Type 3** instrumentation
(§III-C): they "do not directly store an object or bytes carrying the
message data, but the data's address in the physical memory".  We model
that with :class:`NativeMemory`, an off-heap byte block the JNI layer
reads and writes by address.  A stock JRE keeps no shadow for native
memory, so taints die at ``put`` and are absent at ``get``; DisTA's
wrappers maintain a shadow array in ``JniTable.native_shadow`` keyed by
the block's address.

Heap buffers carry labels natively (they wrap a :class:`TByteArray`),
mirroring Phosphor's shadow for ``byte[]``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional, Union

from repro.errors import JavaIOError
from repro.taint.values import TByteArray, TBytes, TInt, as_tbytes, with_taint

_address_counter = itertools.count(0x7F0000000000)
_address_lock = threading.Lock()


class NativeMemory:
    """An off-heap memory block addressed by the JNI layer.

    Carries plain bytes only — shadow labels for native memory live in
    the instrumented JVM's ``native_shadow`` map, never here.
    """

    __slots__ = ("address", "size", "_data")

    def __init__(self, size: int):
        with _address_lock:
            self.address = next(_address_counter)
        self.size = size
        self._data = bytearray(size)

    def read(self, position: int, count: int) -> bytes:
        if position < 0 or position + count > self.size:
            raise JavaIOError(f"native read [{position}, {position + count}) out of bounds")
        # One copy each way through a view (see TByteArray.read/write).
        return bytes(memoryview(self._data)[position : position + count])

    def write(self, position: int, data: bytes) -> None:
        if position < 0 or position + len(data) > self.size:
            raise JavaIOError(
                f"native write [{position}, {position + len(data)}) out of bounds"
            )
        memoryview(self._data)[position : position + len(data)] = data


class ByteBuffer:
    """``java.nio.ByteBuffer``: position/limit/capacity cursor over bytes.

    Use :meth:`allocate` for a heap buffer (labels tracked in the backing
    :class:`TByteArray`) or :meth:`allocate_direct` for a direct buffer
    (backed by :class:`NativeMemory`; label movement only happens through
    the — possibly instrumented — ``direct_get`` / ``direct_put`` JNI
    methods, which is why the buffer needs a ``jni`` reference).
    """

    def __init__(self, capacity: int, direct: bool, jni=None):
        self.capacity = capacity
        self.position = 0
        self.limit = capacity
        self._mark: Optional[int] = None
        self.direct = direct
        self._jni = jni
        if direct:
            if jni is None:
                raise ValueError("direct buffers need the owning JVM's JNI table")
            self.native: Optional[NativeMemory] = NativeMemory(capacity)
            self.heap: Optional[TByteArray] = None
        else:
            self.native = None
            self.heap = TByteArray(capacity)

    # -- construction ------------------------------------------------------ #

    @classmethod
    def allocate(cls, capacity: int) -> "ByteBuffer":
        return cls(capacity, direct=False)

    @classmethod
    def allocate_direct(cls, capacity: int, jni) -> "ByteBuffer":
        return cls(capacity, direct=True, jni=jni)

    @classmethod
    def wrap(cls, data: Union[TBytes, bytes]) -> "ByteBuffer":
        data = as_tbytes(data)
        buf = cls.allocate(len(data))
        buf.heap.write(0, data)
        return buf

    # -- cursor management --------------------------------------------------- #

    def remaining(self) -> int:
        return self.limit - self.position

    def has_remaining(self) -> bool:
        return self.position < self.limit

    def clear(self) -> "ByteBuffer":
        self.position = 0
        self.limit = self.capacity
        self._mark = None
        return self

    def flip(self) -> "ByteBuffer":
        self.limit = self.position
        self.position = 0
        self._mark = None
        return self

    def rewind(self) -> "ByteBuffer":
        self.position = 0
        self._mark = None
        return self

    def mark(self) -> "ByteBuffer":
        self._mark = self.position
        return self

    def reset(self) -> "ByteBuffer":
        if self._mark is None:
            raise JavaIOError("InvalidMarkException")
        self.position = self._mark
        return self

    def compact(self) -> "ByteBuffer":
        leftover = self._read_raw(self.position, self.remaining())
        self.position = 0
        self.limit = self.capacity
        self._write_raw(0, leftover)
        self.position = len(leftover)
        return self

    def _check(self, needed: int) -> None:
        if needed > self.remaining():
            raise JavaIOError(
                f"BufferOverflow/Underflow: need {needed}, remaining {self.remaining()}"
            )

    # -- raw element access (heap: label-preserving; direct: via JNI) -------- #

    def _read_raw(self, position: int, count: int) -> TBytes:
        if self.direct:
            dst = TByteArray(count)
            self._jni.direct_get(self.native, position, dst, 0, count)
            return dst.snapshot()
        return self.heap.read(position, count)

    def _write_raw(self, position: int, data: TBytes) -> None:
        if self.direct:
            self._jni.direct_put(self.native, position, data)
        else:
            self.heap.write(position, data)

    # -- relative get/put --------------------------------------------------- #

    def put(self, data: Union[TBytes, bytes, "ByteBuffer"]) -> "ByteBuffer":
        if isinstance(data, ByteBuffer):
            data = data.get(data.remaining())
        data = as_tbytes(data)
        self._check(len(data))
        self._write_raw(self.position, data)
        self.position += len(data)
        return self

    def put_byte(self, value) -> "ByteBuffer":
        if isinstance(value, TInt):
            raw = TBytes(bytes([value.value & 0xFF]))
            data = raw if value.taint is None else with_taint(raw.data, value.taint)
        else:
            data = TBytes(bytes([int(value) & 0xFF]))
        return self.put(data)

    def get(self, count: Optional[int] = None) -> TBytes:
        if count is None:
            count = self.remaining()
        self._check(count)
        out = self._read_raw(self.position, count)
        self.position += count
        return out

    def get_byte(self):
        data = self.get(1)
        return data[0]

    def get_into(self, dst: TByteArray, offset: int, length: int) -> "ByteBuffer":
        self._check(length)
        if self.direct:
            self._jni.direct_get(self.native, self.position, dst, offset, length)
        else:
            dst.write(offset, self.heap.read(self.position, length))
        self.position += length
        return self

    # -- whole-content helpers ------------------------------------------------ #

    def array(self) -> TBytes:
        """Contents in [0, limit) regardless of position."""
        return self._read_raw(0, self.limit)

    def __repr__(self) -> str:
        kind = "direct" if self.direct else "heap"
        return (
            f"ByteBuffer({kind}, pos={self.position}, lim={self.limit}, "
            f"cap={self.capacity})"
        )
