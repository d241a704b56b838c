"""Flow-lineage capture overhead: on vs off at the fraction extremes (ISSUE 9).

Runs the :class:`~repro.obs.profiler.LineageOverheadSweep` over the SIM
systems at 0% and 100% tainted traffic and writes the result to
``BENCH_PR9.json`` at the repository root.

Both legs are ``Mode.DISTA`` SIM runs, so the ratio prices exactly what
the observability layer adds.  The gates:

* the **structural contract** everywhere: zero store evictions, no flows
  at 0% tainted (the recorder dispatches behind the ``labels is None``
  fast path — untainted traffic never constructs a lineage event), and
  at 100% at least one *completed* flow tree per system;
* at least one system reconstructs a **multi-hop** tree (≥ 2 hops) with
  depth ≥ 3 — source → hop → hop — proving cross-node stitching, not
  just point capture.

The capture cost is recorded, not gated.  The sweep runs the two legs
paired (off, on, off, on, … plus a discarded warmup pair) and records
the aggregate ratio ``sum(on)/sum(off)`` as each point's
``lineage_ratio``; the marginal cost being priced is smaller than the
workloads' run-to-run spread, so a ceiling on it fails on noise.
"""

from pathlib import Path

from repro.obs.profiler import DEFAULT_SYSTEMS, LineageOverheadSweep

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"


def test_lineage_overhead_sim_systems():
    sweep = LineageOverheadSweep(systems=DEFAULT_SYSTEMS, repeats=7)
    points = sweep.run()
    sweep.write(_RESULTS_PATH)
    print()
    print(sweep.render())

    assert len(points) == len(DEFAULT_SYSTEMS) * len(sweep.fractions)
    assert sweep.broken_points() == []

    by_system: dict = {}
    for point in points:
        by_system.setdefault(point.system, {})[point.tainted_fraction] = point

    for system, curve in by_system.items():
        zero, full = curve[0.0], curve[1.0]
        # 0%: the recorder rides the fast path — nothing is captured,
        # nothing is paid for beyond the attribute checks.
        assert zero.flows == 0, f"{system}@0%: lineage captured untainted traffic"
        assert zero.evicted == 0
        # 100%: flows reconstruct, complete, and nothing was evicted
        # (the store bound is far above SIM populations).
        assert full.flows > 0, f"{system}@100%: no flows captured"
        assert full.completed >= 1, f"{system}@100%: no completed flow tree"
        assert full.evicted == 0, f"{system}@100%: store evicted flows"
        for point in curve.values():
            assert point.lineage_ratio > 0.0

    # Cross-node stitching: at least one system's 100% leg reconstructs
    # a multi-hop tree (source -> node -> node), not just single edges.
    fulls = [curve[1.0] for curve in by_system.values()]
    assert any(p.multi_hop >= 1 for p in fulls), "no multi-hop flow tree anywhere"
    assert any(p.max_depth >= 3 for p in fulls), "no tree deeper than one hop"
