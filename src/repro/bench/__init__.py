"""Benchmark harness: regenerates every table of the paper's evaluation."""

from repro.bench.overhead import (
    PAPER_TABLE5,
    PAPER_TABLE6,
    NetworkOverheadResult,
    OverheadRow,
    SystemOverheadRow,
    measure_network_overhead,
    run_table5,
    run_table6,
)
from repro.bench.report import fmt_ms, fmt_ratio, render_table
from repro.bench.tables import (
    full_report,
    implementation_table,
    network_overhead_report,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    taint_count_report,
    usability_table,
)
