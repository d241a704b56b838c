"""Table VI — real-system runtime overhead ordering (5 systems × 5 configurations)."""

from repro.bench.overhead import run_table6


def test_dista_ordering_holds_per_scenario():
    rows = run_table6(repeats=2)
    average = next(r for r in rows if r.name == "Average")
    p_sdt, d_sdt, p_sim, d_sim = average.overheads()
    assert d_sdt > 1.0 and d_sim > 1.0
    # DisTA adds to Phosphor, in both scenarios (paper: +0.31x / +0.64x).
    assert d_sdt > p_sdt * 0.95
    assert d_sim > p_sim * 0.95
