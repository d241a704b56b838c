"""``java.io`` stream stack over socket JNI methods.

Implements the stream classes the micro benchmark's 22 "JRE Socket" cases
exercise (paper Table II): the raw socket streams (whose bodies call the
Type-1 JNI methods, Fig. 1 lines 8–10 / 24–27), buffered streams, data
streams, and the text-oriented ``PrintWriter`` / ``BufferedReader`` pair.

Everything above ``SocketInputStream.read`` / ``SocketOutputStream.write``
is plain (simulated) Java library code operating on shadow-carrying
values; none of it knows whether the JNI table underneath is
instrumented.
"""

from __future__ import annotations

import struct
from typing import Optional, Union

from repro.errors import JavaEOFException
from repro.runtime.pipes import DEFAULT_TIMEOUT
from repro.taint.values import (
    TBool,
    TByteArray,
    TBytes,
    TDouble,
    TInt,
    TLong,
    TStr,
    as_tbytes,
    union_all,
    with_taint,
)

EOF = -1


class InputStream:
    """Abstract ``java.io.InputStream``."""

    def read_into(self, buf: TByteArray, offset: int, length: int) -> int:
        raise NotImplementedError

    def read(self, max_bytes: int = 1) -> TBytes:
        """Up to ``max_bytes``; empty TBytes at EOF."""
        buf = TByteArray(max_bytes)
        count = self.read_into(buf, 0, max_bytes)
        if count == EOF:
            return TBytes.empty()
        return buf.read(0, count)

    def read_byte(self) -> int:
        """Single byte as plain int, or ``EOF`` (java read() contract)."""
        chunk = self.read(1)
        if not chunk:
            return EOF
        return chunk.data[0]

    def read_fully(self, length: int) -> TBytes:
        parts: list[TBytes] = []
        got = 0
        while got < length:
            chunk = self.read(length - got)
            if not chunk:
                raise JavaEOFException(f"EOF after {got}/{length} bytes")
            parts.append(chunk)
            got += len(chunk)
        return TBytes.concat(parts)

    def available(self) -> int:
        return 0

    def close(self) -> None:
        pass


class OutputStream:
    """Abstract ``java.io.OutputStream``."""

    def write(self, data: Union[TBytes, bytes]) -> None:
        raise NotImplementedError

    def write_byte(self, value) -> None:
        if isinstance(value, TInt):
            raw = TBytes(bytes([value.value & 0xFF]))
            self.write(raw if value.taint is None else with_taint(raw.data, value.taint))
        else:
            self.write(TBytes(bytes([int(value) & 0xFF])))

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class SocketInputStream(InputStream):
    """``java.net.SocketInputStream``: body calls ``socketRead0`` (JNI)."""

    def __init__(self, node, fd, timeout: float = DEFAULT_TIMEOUT):
        self._node = node
        self._fd = fd
        self._timeout = timeout

    def read_into(self, buf: TByteArray, offset: int, length: int) -> int:
        if length == 0:
            # java.io contract: a zero-length read returns 0 without
            # reaching the native method, even mid-cell or at EOF.
            return 0
        return self._node.jni.socket_read0(self._fd, buf, offset, length, self._timeout)

    def available(self) -> int:
        return self._node.jni.socket_available(self._fd)

    def close(self) -> None:
        self._fd.close()


class SocketOutputStream(OutputStream):
    """``java.net.SocketOutputStream``: body calls ``socketWrite0`` (JNI)."""

    def __init__(self, node, fd):
        self._node = node
        self._fd = fd

    def write(self, data: Union[TBytes, bytes]) -> None:
        self._node.jni.socket_write0(self._fd, as_tbytes(data))

    def close(self) -> None:
        self._fd.shutdown_output()


class BufferedInputStream(InputStream):
    """``java.io.BufferedInputStream``."""

    def __init__(self, source: InputStream, size: int = 8192):
        self._source = source
        self._size = size
        self._buffer = TBytes.empty()

    def _fill(self) -> bool:
        if self._buffer:
            return True
        chunk = self._source.read(self._size)
        if not chunk:
            return False
        self._buffer = chunk
        return True

    def read_into(self, buf: TByteArray, offset: int, length: int) -> int:
        if not self._fill():
            return EOF
        take = min(length, len(self._buffer))
        buf.write(offset, self._buffer[:take])
        self._buffer = self._buffer[take:]
        return take

    def available(self) -> int:
        return len(self._buffer) + self._source.available()

    def close(self) -> None:
        self._source.close()


class BufferedOutputStream(OutputStream):
    """``java.io.BufferedOutputStream``."""

    def __init__(self, sink: OutputStream, size: int = 8192):
        self._sink = sink
        self._size = size
        self._pending: list[TBytes] = []
        self._pending_len = 0

    def write(self, data: Union[TBytes, bytes]) -> None:
        data = as_tbytes(data)
        self._pending.append(data)
        self._pending_len += len(data)
        if self._pending_len >= self._size:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            combined = TBytes.concat(self._pending)
            self._pending = []
            self._pending_len = 0
            self._sink.write(combined)
        self._sink.flush()

    def close(self) -> None:
        self.flush()
        self._sink.close()


class DataOutputStream(OutputStream):
    """``java.io.DataOutputStream``: primitive encoders (big endian).

    Scalar shadows spread across every byte of the encoding, so byte-level
    inter-node tracking reconstructs the scalar's taint on the other side.
    """

    def __init__(self, sink: OutputStream):
        self._sink = sink

    def write(self, data: Union[TBytes, bytes]) -> None:
        self._sink.write(as_tbytes(data))

    def _write_packed(self, fmt: str, value) -> None:
        taint = value.taint if hasattr(value, "taint") else None
        raw = struct.pack(fmt, value.value if hasattr(value, "value") else value)
        data = TBytes(raw) if taint is None else TBytes.tainted(raw, taint)
        self.write(data)

    def write_int(self, value: Union[TInt, int]) -> None:
        self._write_packed(">i", value)

    def write_long(self, value: Union[TLong, int]) -> None:
        self._write_packed(">q", value)

    def write_short(self, value: Union[TInt, int]) -> None:
        self._write_packed(">h", value)

    def write_double(self, value: Union[TDouble, float]) -> None:
        self._write_packed(">d", value)

    def write_boolean(self, value: Union[TBool, bool]) -> None:
        self._write_packed(">?", value)

    def write_utf(self, value: Union[TStr, str]) -> None:
        encoded = (value if isinstance(value, TStr) else TStr(value)).encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError("UTFDataFormatException: string too long")
        self.write(TBytes(struct.pack(">H", len(encoded))))
        self.write(encoded)

    def write_int_array(self, values: list) -> None:
        self.write_int(TInt(len(values)))
        for value in values:
            self.write_int(value)

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()


class DataInputStream(InputStream):
    """``java.io.DataInputStream``: primitive decoders."""

    def __init__(self, source: InputStream):
        self._source = source

    def read_into(self, buf: TByteArray, offset: int, length: int) -> int:
        return self._source.read_into(buf, offset, length)

    def read_fully(self, length: int) -> TBytes:
        return self._source.read_fully(length)

    def _read_packed(self, fmt: str, size: int, wrapper):
        data = self.read_fully(size)
        (value,) = struct.unpack(fmt, data.data)
        return wrapper(value, data.overall_taint())

    def read_int(self) -> TInt:
        return self._read_packed(">i", 4, TInt)

    def read_long(self) -> TLong:
        return self._read_packed(">q", 8, TLong)

    def read_short(self) -> TInt:
        return self._read_packed(">h", 2, TInt)

    def read_double(self) -> TDouble:
        return self._read_packed(">d", 8, TDouble)

    def read_boolean(self) -> TBool:
        return self._read_packed(">?", 1, TBool)

    def read_utf(self) -> TStr:
        length = self.read_fully(2)
        (size,) = struct.unpack(">H", length.data)
        return self.read_fully(size).decode("utf-8")

    def read_int_array(self) -> list:
        count = self.read_int()
        return [self.read_int() for _ in range(count.value)]

    def available(self) -> int:
        return self._source.available()

    def close(self) -> None:
        self._source.close()


class PrintWriter:
    """``java.io.PrintWriter`` over an output stream (UTF-8, ``\\n``)."""

    def __init__(self, sink: OutputStream, auto_flush: bool = True):
        self._sink = sink
        self._auto_flush = auto_flush

    def print(self, text: Union[TStr, str]) -> None:
        self._sink.write((text if isinstance(text, TStr) else TStr(text)).encode())

    def println(self, text: Union[TStr, str] = "") -> None:
        self.print(text)
        self._sink.write(b"\n")
        if self._auto_flush:
            self._sink.flush()

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()


class BufferedReader:
    """``java.io.BufferedReader``: line-oriented reads with labels."""

    def __init__(self, source: InputStream, size: int = 8192):
        self._source = source
        self._size = size
        self._buffer = TBytes.empty()
        self._eof = False

    def read_line(self) -> Optional[TStr]:
        while True:
            idx = self._buffer.data.find(b"\n")
            if idx >= 0:
                line = self._buffer[:idx]
                self._buffer = self._buffer[idx + 1 :]
                return line.decode("utf-8")
            if self._eof:
                if not self._buffer:
                    return None
                line, self._buffer = self._buffer, TBytes.empty()
                return line.decode("utf-8")
            chunk = self._source.read(self._size)
            if not chunk:
                self._eof = True
            else:
                self._buffer = self._buffer + chunk

    def read_bytes(self, length: int) -> TBytes:
        """Exactly ``length`` raw bytes (labels intact), honouring the
        lookahead buffer — used for HTTP bodies after header lines."""
        parts: list[TBytes] = []
        got = 0
        while got < length:
            if self._buffer:
                take = min(length - got, len(self._buffer))
                parts.append(self._buffer[:take])
                self._buffer = self._buffer[take:]
                got += take
                continue
            chunk = self._source.read(length - got)
            if not chunk:
                raise JavaEOFException(f"EOF after {got}/{length} body bytes")
            self._buffer = chunk
        return TBytes.concat(parts)

    def close(self) -> None:
        self._source.close()
