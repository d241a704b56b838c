#!/usr/bin/env python3
"""Compare two sets of benchmark results: the parent's and a change's.

    python3 benchmark/compare.py PARENT CHANGE [--claim METRIC:WORKLOAD ...]

PARENT and CHANGE are directories (or single files) of result JSONs
written by ``run.py --out``.  For every (end-to-end metric, workload)
it prints each side's median and quartiles and a verdict:

* a named ``--claim`` is a ``gain`` only with at least 10 pairs of runs
  (matched by seed), the change winning at least 9 in 10 of them (ties
  count for neither), and the medians differing by more than the
  parent's interquartile range; otherwise ``not met``;
* every other pair is a ``REGRESSION`` when the change's median is worse
  than the parent's by more than the metric's bound in BENCHMARK.json,
  ``unresolved`` when either side's spread (IQR / median) exceeds the
  bound and not every change run beats every parent run, else ``ok``.

It exits non-zero on any regression, on any rise in the failed-op rate,
and on any claim not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """``{workload: {seed: record}}`` of the untraced results under path."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = {}
    for file in files:
        record = json.loads(file.read_text())
        if record.get("trace") or "workload" not in record:
            continue
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def cell(records: dict, name: str) -> str:
    q = quartiles([r["metrics"][name]["value"] for r in records.values()])
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def better(a: float, b: float, direction: str) -> bool:
    """``a`` reads strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent: dict, change: dict, metric: dict, claimed: bool) -> str:
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    p = [r["metrics"][name]["value"] for r in parent.values()]
    c = [r["metrics"][name]["value"] for r in change.values()]
    pq, cq = quartiles(p), quartiles(c)
    if claimed:
        pairs = [
            (parent[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
            for s in sorted(set(parent) & set(change))
        ]
        wins = sum(better(cv, pv, direction) for pv, cv in pairs)
        gap = abs(cq[1] - pq[1])
        if (
            len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and better(cq[1], pq[1], direction)
            and gap > pq[2] - pq[0]
        ):
            return f"gain ({wins}/{len(pairs)} pairs won)"
        return f"not met ({wins}/{len(pairs)} pairs won, gap {gap:.4g} vs parent IQR {pq[2] - pq[0]:.4g})"
    worse = (cq[1] - pq[1]) if direction == "lower" else (pq[1] - cq[1])
    worse_share = worse / abs(pq[1]) if pq[1] else 0.0
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (pq, cq)
    )
    all_better = all(better(cv, pv, direction) for cv in c for pv in p)
    if spread > bound and not all_better:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if worse_share > bound:
        return f"REGRESSION (worse by {worse_share:.1%} > bound {bound:.0%})"
    return f"ok ({-worse_share:+.1%})"


def failed_share(records: dict) -> float:
    attempted = sum(r["attempted"] for r in records.values())
    return sum(r["failed"] for r in records.values()) / attempted if attempted else 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    known = {m["name"] for m in metrics}
    claims = set()
    for claim in args.claim:
        name, _, workload = claim.partition(":")
        if name not in known or not workload:
            parser.error(f"--claim {claim!r}: expected METRIC:WORKLOAD with METRIC in {sorted(known)}")
        claims.add((name, workload))
    parent, change = load(args.parent), load(args.change)
    status = 0
    print(f"{'workload':<14}{'metric':<20}{'parent median [q1, q3]':>36}"
          f"{'change median [q1, q3]':>36}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<14}only in {'parent' if workload in parent else 'change'}")
            status = 1
            continue
        p, c = parent[workload], change[workload]
        findings = []
        for metric in metrics:
            name = metric["name"]
            text = verdict(p, c, metric, (name, workload) in claims)
            if text.startswith(("REGRESSION", "not met")):
                findings.append(name)
            print(f"{workload:<14}{name:<20}{cell(p, name):>36}{cell(c, name):>36}  {text}")
        pf, cf = failed_share(p), failed_share(c)
        if cf > pf:
            findings.append("failed ops")
        print(f"{workload:<14}{'failed share':<20}{pf:>36.6g}{cf:>36.6g}"
              f"  {'REGRESSION' if cf > pf else 'ok'}")
        print(f"{workload:<14}=> {'REGRESSION in ' + ', '.join(findings) if findings else 'no regression'}"
              f"  ({len(p)} parent runs, {len(c)} change runs)")
        status |= 1 if findings else 0
    for name, workload in sorted(claims):
        if workload not in parent or workload not in change:
            print(f"claim {name}:{workload}: no results for {workload}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
