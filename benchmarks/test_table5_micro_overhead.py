"""Table V — micro-benchmark runtime overhead ordering."""

from repro.bench.overhead import run_table5


def test_overhead_ordering_holds(bench_size):
    """The paper's qualitative claim: Original < Phosphor < DisTA on
    average, with DisTA's inter-node addition being the smaller step."""
    rows = run_table5(size=bench_size, repeats=2)
    average = next(r for r in rows if r.name == "Average")
    assert average.phosphor_overhead > 1.0
    assert average.dista_overhead > average.phosphor_overhead
