"""Sanity tests for the table-regeneration harness itself."""

import json
import sys
from collections import Counter

import pytest

from repro.bench import __main__ as bench_main
from repro.bench import tables
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
from repro.bench.tables import table1, table3, table4, usability_table


class TestReport:
    def test_render_alignment(self):
        out = render_table("T", ["col", "x"], [["a", 1], ["bbbb", 22]], note="n")
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert len(lines) == 6  # title, header, sep, 2 rows, note
        widths = {len(line) for line in lines[1:4]}
        assert len(widths) == 1  # header, separator, rows aligned

    def test_formatters(self):
        assert fmt_ratio(None) == "-"
        assert fmt_ratio(2.5) == "2.50x"
        assert fmt_ms(0.0123) == "12.3"
        assert fmt_ms(None) == "-"


class TestStaticTables:
    def test_table1_contains_every_method(self):
        out = table1()
        assert "socketRead0" in out and "DirectByteBuffer" in out

    def test_table3_lists_five_systems(self):
        out = table3()
        for name in ("ZooKeeper", "MapReduce/Yarn", "ActiveMQ", "RocketMQ", "HBase"):
            assert name in out

    def test_table4_has_sdt_and_sim_rows(self):
        out = table4()
        assert out.count("SDT") == 5
        assert out.count("SIM") == 5

    def test_usability_table(self):
        out = usability_table()
        assert "zkEnv.sh" in out
        assert "source-code changes: 0" in out


class TestOverheadHarness:
    def test_table5_row_structure(self):
        rows = run_table5(size=2048, repeats=1)
        names = [r.name for r in rows]
        assert names[0] == "JRE Socket-Best"
        assert names[-1] == "Average"
        assert len(rows) == len(PAPER_TABLE5)
        for row in rows:
            assert row.original_s > 0
            assert row.phosphor_overhead > 0
            assert row.dista_overhead > 0

    def test_paper_reference_values_attached(self):
        rows = run_table5(size=2048, repeats=1)
        average = next(r for r in rows if r.name == "Average")
        assert average.paper_phosphor == 2.62
        assert average.paper_dista == 3.95

    def test_table6_row_structure(self):
        rows = run_table6(repeats=1)
        assert [r.name for r in rows][:5] == list(PAPER_TABLE6)[:5]
        assert rows[-1].name == "Average"
        for row in rows[:-1]:
            assert row.original_s > 0

    def test_network_overhead_shape(self):
        result = measure_network_overhead(size=2048)
        assert result.original_bytes > 0
        assert 4.9 <= result.ratio <= 5.1



def _row(printed: str, title: str, *key: str) -> list:
    """The cells of the row whose first cells are ``key``, in the printed
    table whose title starts with ``title``."""
    table = next(text for text in printed.split("\n\n") if text.startswith(title))
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split(" | ")]
        if tuple(cells[: len(key)]) == key:
            return cells
    raise AssertionError(f"no row {key} in\n{table}")


class TestMain:
    def test_measures_once_and_writes_the_printed_ratios(
        self, monkeypatch, capsys, tmp_path
    ):
        calls = Counter()

        def counting(name, result):
            def measure(*args, **kwargs):
                calls[name] += 1
                return result

            return measure

        table5_rows = [
            OverheadRow("JRE Socket-Best", 0.010, 0.021, 0.051, 2.07, 2.45),
            OverheadRow("Average", 0.010, 0.026, 0.043, 2.62, 3.95),
        ]
        table6_rows = [
            SystemOverheadRow(
                "ZooKeeper", 0.100, 0.130, 0.170, 0.140, 0.230, 2, 40,
                PAPER_TABLE6["ZooKeeper"],
            ),
            SystemOverheadRow(
                "Average", 0.100, 0.130, 0.170, 0.140, 0.230,
                paper=PAPER_TABLE6["Average"],
            ),
        ]
        monkeypatch.setattr(bench_main, "run_table5", counting("table5", table5_rows))
        monkeypatch.setattr(bench_main, "run_table6", counting("table6", table6_rows))
        monkeypatch.setattr(
            bench_main,
            "measure_network_overhead",
            counting("network", NetworkOverheadResult(1000, 5000)),
        )
        # Table II is not timed; keep the 30 cases out of this test.
        monkeypatch.setattr(tables, "table2", lambda **_: "== Table II ==")
        path = tmp_path / "out.json"
        monkeypatch.setattr(sys, "argv", ["repro.bench", "--quick", "--json", str(path)])

        bench_main.main()

        assert calls == {"table5": 1, "table6": 1, "network": 1}
        printed = capsys.readouterr().out
        results = json.loads(path.read_text())
        for row in results["table5"]:
            cells = _row(printed, "== Table V ", row["case"])
            assert cells[3] == fmt_ratio(row["phosphor_overhead"])
            assert cells[6] == fmt_ratio(row["dista_overhead"])
        for row in results["table6"]:
            cells = _row(printed, "== Table VI ", row["system"])
            assert cells[2::2] == [
                fmt_ratio(row[key])
                for key in ("phosphor_sdt", "dista_sdt", "phosphor_sim", "dista_sim")
            ]
        ratio = results["network_overhead"]["ratio"]
        assert _row(printed, "== Network overhead", "DisTA")[2] == f"{ratio:.2f}x"
        # The taint counts come from Table VI's system rows, not the average.
        counts = results["taint_counts"]
        assert [(r["scenario"], r["global_taints"]) for r in counts] == [
            ("SDT", 2),
            ("SIM", 40),
        ]
        for row in counts:
            cells = _row(printed, "== Global taints", row["system"], row["scenario"])
            assert cells[2:] == [str(row["global_taints"]), fmt_ratio(row["dista_overhead"])]
