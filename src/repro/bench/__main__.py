"""``python -m repro.bench`` — regenerate every table of the paper.

Options::

    --quick        faster single-repeat run with smaller payloads
    --json PATH    additionally dump machine-readable results to PATH

Each timed table is measured once; the printed and the JSON report are
built from the same rows.
"""

import argparse
import json

from repro.bench.overhead import (
    NetworkOverheadResult,
    OverheadRow,
    SystemOverheadRow,
    measure_network_overhead,
    run_table5,
    run_table6,
)
from repro.bench.tables import full_report
from repro.core.launch import all_launch_scripts


def results_as_dict(
    table5_rows: list[OverheadRow],
    table6_rows: list[SystemOverheadRow],
    network: NetworkOverheadResult,
) -> dict:
    """Machine-readable version of the regenerated evaluation."""
    table5 = [
        {
            "case": row.name,
            "original_s": row.original_s,
            "phosphor_overhead": row.phosphor_overhead,
            "dista_overhead": row.dista_overhead,
            "paper_phosphor": row.paper_phosphor,
            "paper_dista": row.paper_dista,
        }
        for row in table5_rows
    ]
    table6 = []
    for row in table6_rows:
        p_sdt, d_sdt, p_sim, d_sim = row.overheads()
        table6.append(
            {
                "system": row.name,
                "original_s": row.original_s,
                "phosphor_sdt": p_sdt,
                "dista_sdt": d_sdt,
                "phosphor_sim": p_sim,
                "dista_sim": d_sim,
                "paper": list(row.paper),
            }
        )
    return {
        "table5": table5,
        "table6": table6,
        "network_overhead": {
            "original_bytes": network.original_bytes,
            "dista_bytes": network.dista_bytes,
            "ratio": network.ratio,
        },
        "taint_counts": [
            {
                "system": row.name,
                "scenario": scenario,
                "global_taints": taints,
                "dista_overhead": overhead,
            }
            for row in table6_rows[:-1]  # the last row is the average
            for scenario, taints, overhead in row.taint_counts()
        ],
        "usability_loc": {
            name: script.changed_loc for name, script in all_launch_scripts().items()
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args()
    size = 8 * 1024 if args.quick else 32 * 1024
    repeats = 1 if args.quick else 2
    table5_rows = run_table5(size=size, repeats=repeats)
    table6_rows = run_table6(repeats=repeats)
    network = measure_network_overhead()
    print(full_report(table5_rows, table6_rows, network))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results_as_dict(table5_rows, table6_rows, network), handle, indent=2)
        print(f"\nmachine-readable results written to {args.json}")


if __name__ == "__main__":
    main()
