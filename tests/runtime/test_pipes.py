"""Unit + property tests for the simulated kernel transport primitives."""

import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PipeClosed, SimTimeout
from repro.runtime.pipes import BytePipe, DatagramBox


class TestBytePipe:
    def test_write_then_read(self):
        pipe = BytePipe()
        assert pipe.write(b"hello") == 5
        assert pipe.read(10) == b"hello"

    def test_partial_read(self):
        pipe = BytePipe()
        pipe.write(b"abcdef")
        assert pipe.read(2) == b"ab"
        assert pipe.read(100) == b"cdef"

    def test_read_blocks_until_data(self):
        pipe = BytePipe()

        def writer():
            pipe.write(b"x")

        t = threading.Thread(target=writer)
        t.start()
        assert pipe.read(1, timeout=5) == b"x"
        t.join()

    def test_eof_after_close_write(self):
        pipe = BytePipe()
        pipe.write(b"tail")
        pipe.close_write()
        assert pipe.read(10) == b"tail"
        assert pipe.read(10) == b""
        assert pipe.at_eof()

    def test_write_to_full_pipe_blocks_then_completes(self):
        pipe = BytePipe(capacity=4)
        assert pipe.write(b"aaaa") == 4
        done = []

        def writer():
            done.append(pipe.write_all(b"bbbb"))

        t = threading.Thread(target=writer)
        t.start()
        assert pipe.read(4) == b"aaaa"
        t.join(5)
        assert done == [4]
        assert pipe.read(4) == b"bbbb"

    def test_capacity_partial_write(self):
        pipe = BytePipe(capacity=3)
        assert pipe.write(b"abcdef") == 3

    def test_read_timeout(self):
        pipe = BytePipe()
        with pytest.raises(SimTimeout):
            pipe.read(1, timeout=0.01)

    def test_write_after_reader_close_raises(self):
        pipe = BytePipe()
        pipe.close_read()
        with pytest.raises(PipeClosed):
            pipe.write(b"x")

    def test_read_exact(self):
        pipe = BytePipe()
        pipe.write(b"abc")
        pipe.write(b"def")
        assert pipe.read_exact(5) == b"abcde"

    def test_read_exact_eof_raises(self):
        pipe = BytePipe()
        pipe.write(b"ab")
        pipe.close_write()
        with pytest.raises(PipeClosed):
            pipe.read_exact(5)

    def test_max_segment_forces_partial_reads(self):
        pipe = BytePipe(max_segment=2)
        pipe.write(b"abcdef")
        assert pipe.read(100) == b"ab"
        assert pipe.read(100) == b"cd"

    def test_zero_byte_ops(self):
        pipe = BytePipe()
        assert pipe.write(b"") == 0
        assert pipe.read(0) == b""

    def test_reads_over_segments(self):
        """A read of exactly the head segment hands the written object
        over; reads ending inside a segment or spanning several copy."""
        pipe = BytePipe()
        first = b"abcdef"
        for segment in (first, b"ghij", b"kl", b"mnop", b"qr"):
            pipe.write(segment)
        assert pipe.read(6) is first
        assert pipe.read(2) == b"gh"
        assert pipe.read(4) == b"ijkl"  # spans, ends on a segment end
        assert pipe.read(5) == b"mnopq"  # spans, ends inside a segment
        assert pipe.available() == 1
        assert pipe.read(100) == b"r"
        assert pipe.available() == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=20),
        # Cycled read sizes: up to 150 over segments of up to 64 bytes
        # in a 128-byte pipe, so reads end inside a segment, span
        # segments, and take whole ones.
        st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=8),
    )
    def test_stream_is_order_preserving_and_lossless(self, chunks, read_sizes):
        pipe = BytePipe(capacity=128)
        sizes = itertools.cycle(read_sizes)
        expected = b"".join(chunks)

        def writer():
            for chunk in chunks:
                pipe.write_all(chunk)
            pipe.close_write()

        t = threading.Thread(target=writer)
        t.start()
        received = bytearray()
        while True:
            chunk = pipe.read(next(sizes), timeout=10)
            if not chunk:
                break
            received.extend(chunk)
        t.join()
        assert bytes(received) == expected


class TestDatagramBox:
    def test_boundaries_preserved(self):
        box = DatagramBox()
        box.deliver(b"one", ("10.0.0.1", 1))
        box.deliver(b"twotwo", ("10.0.0.2", 2))
        assert box.receive() == (b"one", ("10.0.0.1", 1))
        assert box.receive() == (b"twotwo", ("10.0.0.2", 2))

    def test_peek_does_not_consume(self):
        box = DatagramBox()
        box.deliver(b"d", ("a", 1))
        assert box.peek() == (b"d", ("a", 1))
        assert box.pending() == 1
        assert box.receive() == (b"d", ("a", 1))

    def test_overflow_drops(self):
        box = DatagramBox(max_queued=1)
        assert box.deliver(b"a", ("x", 1))
        assert not box.deliver(b"b", ("x", 1))
        assert box.dropped == 1

    def test_receive_timeout(self):
        box = DatagramBox()
        with pytest.raises(SimTimeout):
            box.receive(timeout=0.01)

    def test_closed_box(self):
        box = DatagramBox()
        box.close()
        assert not box.deliver(b"x", ("a", 1))
        with pytest.raises(PipeClosed):
            box.receive(timeout=0.1)
