"""Shared configuration for the two overhead-ordering checks.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/ -q

Both time single min-of-2 runs, so they are not part of the tier-1
suite; they stay until Tables V/VI come from paired benchmark legs.
"""

import pytest

#: Payload size for the Table V workloads.  Smaller than the test-suite
#: default so the 3-mode × 30-case matrix stays fast; ratios are
#: size-stable above ~8 KiB.
BENCH_SIZE = 16 * 1024


@pytest.fixture(scope="session")
def bench_size() -> int:
    return BENCH_SIZE
