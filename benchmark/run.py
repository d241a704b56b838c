#!/usr/bin/env python3
"""DisTA benchmark: paired BASELINE/DisTA legs over closed-loop workloads.

One workload per process::

    python3 benchmark/run.py --workload stream-taint --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` it runs all four workloads, each in a fresh
subprocess, one after another.  ``--out DIR`` keeps each result (and
each traced run's Chrome trace) in DIR for ``compare.py``.  See
README.md for the metrics, the layers and how to read them.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import insort  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("stream-taint", "stream-clean", "taint-churn", "sim-jobs")
#: The seed the numbers in README.md were taken with, and one kept out of
#: development for checking a claimed gain.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20221
DEFAULT_SECONDS = 25
#: Paired rounds per run.  Machine speed drifts in bursts of about a
#: second, so many short paired legs track each other better than a few
#: long ones.
ROUNDS = 10
#: Each mode's discarded warm-up leg takes this share of --seconds; the
#: rounds share the rest equally.
WARMUP_SHARE = 0.05
#: Alternating traced BASELINE/DisTA rounds in the traced run.
TRACE_ROUNDS = 3
#: --smoke: measured ops per leg (rounded up to whole sim-jobs cycles).
SMOKE_OPS = 12

#: Iterations of the reference loop timed after every measured op.
REFERENCE_LOOP = 2000
#: The reference loop's typical time on the machine the bounds were set
#: on.  Leg budgets are counted in reference units, so a leg runs about
#: the same number of ops however fast the machine is at the moment;
#: ``WALL_CAP`` bounds the wall time a slow machine can add.
NOMINAL_REF_S = 0.15e-3
WALL_CAP = 1.3
#: Reference timings on each side of an op that normalise it.
REF_WINDOW = 5

#: End-to-end metrics (--trace 0) and their units.  Latencies are in
#: reference units ("ref"): multiples of the reference loop's time
#: measured around each op, which divides out the machine's speed.
E2E_UNITS = {
    "overhead_x": "x",
    "op_p50_ref": "ref",
    "baseline_op_p50_ref": "ref",
    "wire_x": "x",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (--trace 1) and their units; per DisTA op unless
#: the README says otherwise.
LAYER_UNITS = {
    "taint.sources.calls": "count",
    "taint.sources.busy_ms": "ms",
    "appmodel.busy_ms": "ms",
    "appmodel.baseline_busy_ms": "ms",
    "core.wrappers.calls": "count",
    "core.wrappers.busy_ms": "ms",
    "obs.calls": "count",
    "obs.busy_ms": "ms",
    "core.wire.calls": "count",
    "core.wire.busy_ms": "ms",
    "core.wire.fastpath_share": "ratio",
    "jre.jni.busy_ms": "ms",
    "jre.jni.baseline_busy_ms": "ms",
    "core.taintmap.client.calls": "count",
    "core.taintmap.client.wall_ms": "ms",
    "core.taintmap.client.rpcs": "count",
    "core.taintmap.client.entries_per_rpc": "count",
    "core.taintmap.client.cache_hit_ratio": "ratio",
    "core.taintmap.client.rpc_p50_ms": "ms",
    "core.aio_transport.flushes.size": "count",
    "core.aio_transport.flushes.timer": "count",
    "core.aio_transport.flushes.backpressure": "count",
    "core.aio_transport.window_entries_p50": "count",
    "core.taintmap.server.busy_ms": "ms",
    "core.taintmap.server.entries": "count",
    "core.taintmap.server.global_taints": "count",
    "runtime.kernel.send_busy_ms": "ms",
    "runtime.kernel.baseline_send_busy_ms": "ms",
    "runtime.kernel.recv_wait_ms": "ms",
    "runtime.kernel.app_bytes": "B",
    "runtime.kernel.taintmap_bytes": "B",
    "reconcile.delta_ms": "ms",
    "reconcile.layer_delta_ms": "ms",
    "reconcile.unattributed_ms": "ms",
    "reconcile.trace_overhead_x": "x",
}


@dataclass
class Leg:
    """What one leg measured.  Times are in seconds."""

    mode: object
    latencies: list = field(default_factory=list)
    #: sim-jobs: the system each measured op ran (else ``None`` each).
    systems: list = field(default_factory=list)
    #: (start, end) of every measured op, for the tracer's op windows.
    windows: list = field(default_factory=list)
    #: One reference-loop time after every measured op.
    refs: list = field(default_factory=list)
    #: Wall time to the first completed op, and the same scaled to the
    #: nominal machine speed by the leg's reference timings.
    setup_wall_s: float = 0.0
    setup_s: float = 0.0
    app_bytes: int = 0
    all_bytes: int = 0
    telemetry: dict = field(default_factory=dict)
    global_taints: float = 0.0
    attempted: int = 0
    errors: list = field(default_factory=list)


def run_leg(workload, mode, inputs, budget_s, max_ops, tracer=None, counted=False) -> Leg:
    """Boot a leg, time its first op as set-up, then run measured ops.

    Ops run until ``budget_s`` (in reference units, see
    ``NOMINAL_REF_S``) or ``max_ops`` is reached, in whole cycles of the
    sim-jobs order so every system is measured equally.
    ``counted`` also collects telemetry and Taint Map bytes (traced
    legs).  An op that raises ends the leg as a failure.
    """
    from workloads import open_leg

    gc.collect()
    leg = Leg(mode)
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        running = open_leg(workload, mode, inputs, counted)
        try:
            running.start()
            leg.attempted += 1
            _, error = running.op()
            leg.setup_wall_s = time.perf_counter() - started
            if error:
                leg.errors.append(error)
            before = running.counters(counted)
            cycle = len(inputs.systems) or 1
            budget_ref = budget_s / NOMINAL_REF_S
            refs_sorted: list = []
            first = time.perf_counter()
            while True:
                system = getattr(running, "next_system", None)
                leg.attempted += 1
                op_started = time.perf_counter()
                latency, error = running.op()
                now = time.perf_counter()
                if error:
                    leg.errors.append(error)
                else:
                    leg.windows.append((op_started, now))
                    leg.latencies.append(latency)
                    leg.systems.append(system)
                    leg.refs.append(reference_s())
                    insort(refs_sorted, leg.refs[-1])
                # Failed ops count toward the budget, so a leg always ends.
                done = leg.attempted - 1
                if done % cycle:
                    continue
                # Would one more cycle overrun the budget or the wall cap?
                grown = (time.perf_counter() - first) * (done + cycle) / done
                ref = refs_sorted[len(refs_sorted) // 2] if refs_sorted else NOMINAL_REF_S
                if done >= max_ops or grown / ref > budget_ref or grown > budget_s * WALL_CAP:
                    break
            after = running.counters(counted)
            if leg.refs:
                leg.setup_s = leg.setup_wall_s * NOMINAL_REF_S / median(leg.refs)
            leg.app_bytes = after["app_bytes"] - before["app_bytes"]
            leg.all_bytes = after["all_bytes"] - before["all_bytes"]
            if counted:
                from repro.obs.registry import diff_snapshots

                leg.telemetry = diff_snapshots(after["telemetry"], before["telemetry"])
                leg.global_taints = after["global_taints"]
        except Exception as exc:  # a broken or wedged connection ends the leg
            leg.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            leg.errors.extend(running.close())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return leg


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def reference_s() -> float:
    """One timing of the reference loop: fixed pure-Python work that
    nothing in the program can change, so its time tracks only how fast
    the machine runs at that moment."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - started


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=20)[-1]


def normalised(leg: Leg) -> list:
    """The leg's op latencies in reference units.

    Each op is divided by the median reference time of the ops around
    it, so a burst of machine slowness scales both alike; this keeps the
    tail (p95) from reading the machine's bursts as the program's.
    """
    refs, out = leg.refs, []
    for index, latency in enumerate(leg.latencies):
        window = sorted(refs[max(0, index - REF_WINDOW) : index + REF_WINDOW + 1])
        out.append(latency / window[len(window) // 2])
    return out


def per_system(legs: list) -> dict:
    """Normalised latencies of ``legs`` by sim-jobs system (one ``None``
    group for the other workloads)."""
    out: dict = {}
    for leg in legs:
        for latency, system in zip(normalised(leg), leg.systems):
            out.setdefault(system, []).append(latency)
    return out


def ratio(base: list, dista: list) -> float:
    """DisTA median / BASELINE median in reference units over the given
    legs; for sim-jobs the geometric mean over systems of the
    per-system ratio."""
    b, d = per_system(base), per_system(dista)
    logs = [
        math.log(median(d[system]) / median(b[system]))
        for system in sorted(set(b) & set(d), key=str)
        if median(b[system])
    ]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def bytes_per_op(legs) -> float:
    ops = sum(len(leg.latencies) for leg in legs)
    return sum(leg.app_bytes for leg in legs) / ops if ops else 0.0


def e2e_metrics(rounds: list, dista_legs: list) -> tuple[dict, dict]:
    """End-to-end metrics from the measured rounds, plus printed extras."""
    base = [b for b, _ in rounds]
    dista = [d for _, d in rounds]
    d_norm = [x for leg in dista for x in normalised(leg)]
    b_norm = [x for leg in base for x in normalised(leg)]
    d_lat = [x for leg in dista for x in leg.latencies]
    b_lat = [x for leg in base for x in leg.latencies]
    ratios = [ratio([b], [d]) for b, d in rounds]
    base_bytes = bytes_per_op(base)
    sim = any(system is not None for leg in base for system in leg.systems)
    values = {
        # A sim-jobs leg holds two or three jobs per system, too few for
        # a per-round median, so its per-system medians pool all rounds.
        "overhead_x": ratio(base, dista) if sim else median(ratios),
        "op_p50_ref": median(d_norm),
        "baseline_op_p50_ref": median(b_norm),
        "wire_x": bytes_per_op(dista) / base_bytes if base_bytes else 0.0,
        "setup_s": median([leg.setup_s for leg in dista_legs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    refs = [x for pair in rounds for leg in pair for x in leg.refs]
    setup_walls = [leg.setup_wall_s for leg in dista_legs]
    tail = p95(d_norm)
    extras = {
        "ops": f"{len(d_lat)} DisTA, {len(b_lat)} BASELINE (first op of each leg excluded)",
        "op_p95_ref (unbounded, see README)": f"{tail:.4g} ref, "
        f"{sum(x > tail for x in d_norm)} ops beyond it",
        "overhead_x rounds": " ".join(f"{r:.3f}" for r in ratios)
        + f"  (IQR {quartiles[0]:.3f}..{quartiles[2]:.3f})",
        "wall clock, DisTA": f"p50 {median(d_lat) * 1e3:.4g} ms, p95 {p95(d_lat) * 1e3:.4g} ms, "
        f"{len(d_lat) / sum(d_lat) if d_lat else 0.0:.4g} ops/s",
        "wall clock, BASELINE": f"p50 {median(b_lat) * 1e3:.4g} ms",
        "wall clock, set-up": f"median {median(setup_walls) * 1e3:.4g} ms",
        "reference loop": f"median {median(refs) * 1e3:.4g} ms, "
        f"IQR {iqr_share(refs):.1%} of it over the run",
    }
    return values, extras


def iqr_share(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def pooled(legs: list) -> Leg:
    """Several legs of one mode as one."""
    from repro.obs.registry import merge_snapshots

    out = Leg(legs[0].mode)
    for leg in legs:
        out.latencies += leg.latencies
        out.systems += leg.systems
        out.windows += leg.windows
        out.refs += leg.refs
        out.app_bytes += leg.app_bytes
        out.all_bytes += leg.all_bytes
    out.telemetry = merge_snapshots(*(leg.telemetry for leg in legs))
    out.global_taints = median([leg.global_taints for leg in legs])
    return out


def layer_metrics(ref: Leg, base: Leg, dista: Leg, tb, td) -> tuple[dict, dict]:
    """Per-layer metrics of the traced legs (see README.md)."""
    from repro.obs.registry import snapshot_quantile, snapshot_total
    from tracer import BUSY_LAYERS

    def op_thread(name: str) -> bool:
        return name == "MainThread" or name.startswith("job-")

    nd, nb = max(len(dista.latencies), 1), max(len(base.latencies), 1)
    D = td.totals(dista.windows, op_thread)
    B = tb.totals(base.windows, op_thread)
    snap = dista.telemetry

    def total(name, **labels) -> float:
        return snapshot_total(snap, name, labels or None)

    def hist_sum(name) -> float:
        return sum(s["sum"] for s in snap.get(name, {}).get("samples", []))

    def quantile_ms(name, scale=1e3) -> float:
        value = snapshot_quantile(snap, name, 0.5)
        return 0.0 if value is None or math.isinf(value) else value * scale

    fast, slow = total("dista_fastpath_total", path="fast"), total("dista_fastpath_total", path="slow")
    hits, misses = total("dista_cache_events_total", event="hit"), total(
        "dista_cache_events_total", event="miss"
    )
    batches = total("dista_taintmap_batch_entries")
    delta = statistics.fmean(dista.latencies or [0]) - statistics.fmean(base.latencies or [0])
    layer_delta = sum(
        D[layer]["busy"] / nd - B[layer]["busy"] / nb for layer in BUSY_LAYERS
    ) + D["core.taintmap.client"]["wall"] / nd
    ms = 1e3
    values = {
        "taint.sources.calls": D["taint.sources"]["calls"] / nd,
        "taint.sources.busy_ms": D["taint.sources"]["busy"] / nd * ms,
        "appmodel.busy_ms": D["appmodel"]["busy"] / nd * ms,
        "appmodel.baseline_busy_ms": B["appmodel"]["busy"] / nb * ms,
        "core.wrappers.calls": D["core.wrappers"]["calls"] / nd,
        "core.wrappers.busy_ms": D["core.wrappers"]["busy"] / nd * ms,
        "obs.calls": D["obs"]["calls"] / nd,
        "obs.busy_ms": D["obs"]["busy"] / nd * ms,
        "core.wire.calls": D["core.wire"]["calls"] / nd,
        "core.wire.busy_ms": D["core.wire"]["busy"] / nd * ms,
        "core.wire.fastpath_share": fast / (fast + slow) if fast + slow else 0.0,
        "jre.jni.busy_ms": D["jre.jni"]["busy"] / nd * ms,
        "jre.jni.baseline_busy_ms": B["jre.jni"]["busy"] / nb * ms,
        "core.taintmap.client.calls": D["core.taintmap.client"]["calls"] / nd,
        "core.taintmap.client.wall_ms": D["core.taintmap.client"]["wall"] / nd * ms,
        "core.taintmap.client.rpcs": total("dista_taintmap_requests_total") / nd,
        "core.taintmap.client.entries_per_rpc": (
            hist_sum("dista_taintmap_batch_entries") / batches if batches else 0.0
        ),
        "core.taintmap.client.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.taintmap.client.rpc_p50_ms": quantile_ms("dista_taintmap_rpc_seconds"),
        "core.aio_transport.flushes.size": total("dista_coalesce_flush_total", reason="size") / nd,
        "core.aio_transport.flushes.timer": total("dista_coalesce_flush_total", reason="timer") / nd,
        "core.aio_transport.flushes.backpressure": (
            total("dista_coalesce_flush_total", reason="backpressure") / nd
        ),
        "core.aio_transport.window_entries_p50": quantile_ms(
            "dista_coalesce_window_entries", scale=1.0
        ),
        "core.taintmap.server.busy_ms": hist_sum("dista_taintmap_server_handle_seconds") / nd * ms,
        "core.taintmap.server.entries": total("dista_taintmap_server_entries_total") / nd,
        "core.taintmap.server.global_taints": dista.global_taints,
        "runtime.kernel.send_busy_ms": D["runtime.kernel"]["busy"] / nd * ms,
        "runtime.kernel.baseline_send_busy_ms": B["runtime.kernel"]["busy"] / nb * ms,
        "runtime.kernel.recv_wait_ms": D["runtime.kernel.recv"]["wall"] / nd * ms,
        "runtime.kernel.app_bytes": dista.app_bytes / nd,
        "runtime.kernel.taintmap_bytes": max(dista.all_bytes - dista.app_bytes, 0) / nd,
        "reconcile.delta_ms": delta * ms,
        "reconcile.layer_delta_ms": layer_delta * ms,
        "reconcile.unattributed_ms": (delta - layer_delta) * ms,
        "reconcile.trace_overhead_x": (
            median(normalised(dista)) / median(normalised(ref)) if ref.latencies else 0.0
        ),
    }
    extras = {
        "ops": f"{len(dista.latencies)} DisTA, {len(base.latencies)} BASELINE traced; "
        f"{len(ref.latencies)} DisTA untraced",
        "unattributed share": (
            f"{(delta - layer_delta) / delta:.1%} of delta" if delta else "n/a"
        ),
    }
    return values, extras


# --------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------- #


def run_workload(args) -> int:
    from repro.runtime.modes import Mode
    from tracer import Tracer, chrome_trace
    from workloads import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    cycle = len(inputs.systems) or 1
    if args.smoke:
        rounds, warm_budget, leg_budget = 1, math.inf, math.inf
        warm_ops, leg_ops = cycle, SMOKE_OPS
    else:
        rounds, warm_budget = ROUNDS, args.seconds * WARMUP_SHARE
        leg_budget = args.seconds * (1 - 2 * WARMUP_SHARE) / (2 * rounds)
        warm_ops = leg_ops = math.inf
    base_mode, dista_mode = Mode.ORIGINAL, Mode.DISTA

    def leg(mode, budget, ops, **kwargs) -> Leg:
        result = run_leg(args.workload, mode, inputs, budget, ops, **kwargs)
        legs.append(result)
        return result

    legs: list = []
    warm = [leg(base_mode, warm_budget, warm_ops), leg(dista_mode, warm_budget, warm_ops)]
    if args.trace:
        # The untraced DisTA leg is the reference for the tracing
        # overhead; the per-layer numbers come from alternating traced
        # legs, pooled per mode, so a change in machine speed between
        # two legs does not land in the reconciliation.
        traced_rounds = 1 if args.smoke else TRACE_ROUNDS
        share = args.seconds * (1 - 2 * WARMUP_SHARE) / (1 + 2 * traced_rounds)
        budget = share if not args.smoke else math.inf
        ref = leg(dista_mode, budget, leg_ops)
        tracers = {base_mode: Tracer(), dista_mode: Tracer()}
        traced: dict = {base_mode: [], dista_mode: []}
        for index in range(traced_rounds):
            for mode in (base_mode, dista_mode) if index % 2 == 0 else (dista_mode, base_mode):
                traced[mode].append(
                    leg(mode, budget, leg_ops, tracer=tracers[mode], counted=True)
                )
        base, dista = pooled(traced[base_mode]), pooled(traced[dista_mode])
        tb, td = tracers[base_mode], tracers[dista_mode]
        values, extras = layer_metrics(ref, base, dista, tb, td)
        units = LAYER_UNITS
        if args.out is not None:
            origin = min(w[0] for w in (base.windows + dista.windows) or [(0.0, 0.0)])
            trace = chrome_trace(
                [("BASELINE", tb, base.windows, origin), ("DisTA", td, dista.windows, origin)]
            )
            path = args.out / f"trace-{args.workload}.json"
            path.write_text(json.dumps(trace, separators=(",", ":")))
            extras["chrome trace"] = str(path)
    else:
        rounds_run = []
        for index in range(rounds):
            order = (base_mode, dista_mode) if index % 2 == 0 else (dista_mode, base_mode)
            pair = {mode: leg(mode, leg_budget, leg_ops) for mode in order}
            rounds_run.append((pair[base_mode], pair[dista_mode]))
        values, extras = e2e_metrics(rounds_run, [warm[1]] + [d for _, d in rounds_run])
        units = E2E_UNITS

    attempted = sum(x.attempted for x in legs)
    errors = [e for x in legs for e in x.errors]
    extras["error_rate"] = f"{len(errors) / attempted:.6f} ({len(errors)} of {attempted} ops, both modes)"
    extras["wall"] = f"{time.perf_counter() - STARTED:.1f} s for the whole run"
    for message in errors[:5]:
        print(f"error: {message}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:>14.6g} {unit}")
    for name, text in extras.items():
        print(f"  # {name}: {text}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out is not None:
        suffix = "-trace" if args.trace else ""
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **result}
        (args.out / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(record, indent=1)
        )
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------- #
# all workloads
# --------------------------------------------------------------------- #


def run_all(args) -> int:
    """Each workload in its own fresh subprocess, one after another."""
    results, status = {}, 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out is not None:
            command += ["--out", str(args.out)]
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=10 * args.seconds + 300
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        status |= 0 if results[workload]["correct"] else 1
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print("\n" + f"{'metric':<42}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for name, unit in units.items():
        cells = "".join(
            f"{results[w]['metrics'][name]['value']:>14.5g}" if w in results else f"{'-':>14}"
            for w in WORKLOADS
        )
        print(f"{name:<42}{cells}  {unit}")
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    print(f"{'error_rate':<42}{failed / attempted if attempted else 1.0:>14.6g}  fraction")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time of one workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run giving the per-layer metrics")
    parser.add_argument("--out", type=Path, help="directory to keep results and traces in")
    parser.add_argument("--smoke", action="store_true", help="a few ops per leg, one round")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program's sources are not at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
