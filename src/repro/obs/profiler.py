"""Overhead profiler: baseline vs DisTA, per system (the §V-F table).

Runs each system's workload twice — once under :attr:`Mode.BASELINE`
(uninstrumented) and once under :attr:`Mode.DISTA` with the SIM
scenario — and reduces both runs' telemetry snapshots into one
:class:`SystemProfile` row: runtime overhead ratio, crossing and RPC
counts, RPC p95 latency, tainted wire bytes.

A DisTA run whose telemetry reports **zero crossings** is a broken run,
not a fast one — the profiler flags it (``crossings_ok``) and the CI
benchmark fails on it, so an instrumentation regression cannot
masquerade as an overhead win.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from statistics import median
from time import perf_counter
from typing import Optional

from repro.core.config import DisTAConfig
from repro.errors import TelemetryError
from repro.obs.registry import snapshot_max, snapshot_quantile, snapshot_total
from repro.runtime.modes import Mode
from repro.systems.common import SIM

#: The default §V-F subset: three systems keeps the CI benchmark fast.
DEFAULT_SYSTEMS = ("ZooKeeper", "MapReduce/Yarn", "ActiveMQ")

#: Tainted-traffic fractions the sweep visits, 0% → 100%.
DEFAULT_SWEEP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Overhead ceilings the budget sweep visits; ``None`` = unlimited.
DEFAULT_SWEEP_BUDGETS = (1.02, 1.05, 1.10, None)

#: Absolute slack on the convergence canary: the steady-state ratio is
#: a wall-clock measurement over whatever traffic the final controller
#: configuration happened to carry — O(10)-call samples in the smaller
#: SIM workloads — so scheduler noise of a few hundred microseconds
#: moves it by tenths.
BUDGET_CANARY_SLACK = 0.35


# --------------------------------------------------------------------- #
# Shared cluster-lifecycle helper (one discipline for every sweep)
# --------------------------------------------------------------------- #


def best_run(module, mode: Mode, scenario=None, repeats: int = 1, config=None):
    """One profiled cell's cluster lifecycle: deploy → run → tear down,
    ``repeats`` times, keeping the fastest run (min-of-N timing).

    Every sweep and the profiler route through here, so they share one
    discipline for cluster setup/teardown and repeat handling — and one
    place to change it.
    """
    if repeats < 1:
        raise TelemetryError("repeats must be >= 1")
    return min(
        (
            module.run_workload(mode, scenario, config)
            for _ in range(repeats)
        ),
        key=lambda result: result.duration,
    )


def baseline_seconds(module, repeats: int = 1) -> float:
    """The BASELINE (uninstrumented) timing reference for one system."""
    return best_run(module, Mode.BASELINE, None, repeats).duration


# --------------------------------------------------------------------- #
# Calibrated baseline cost model (the budget controller's denominator)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BaselineReference:
    """Calibrated per-call / per-byte cost of uninstrumented I/O.

    The budget controller needs a live estimate of what a traffic window
    *would* have cost without tracking; re-running the workload under
    :attr:`Mode.BASELINE` mid-flight is obviously not an option, so we
    time the environment's transport once per process and model a window
    as ``calls * seconds_per_call + bytes * seconds_per_byte``.

    The per-call cost is measured over **loopback TCP echo round trips
    through the simulated kernel** — the same endpoint machinery (and
    thread handoffs) both the workload's I/O calls and the resolver's
    Taint Map RPCs ride on.  Calibrating against a bare in-process
    buffer instead would undercount an uninstrumented I/O call by
    orders of magnitude and make every budget unreachable: the
    numerator (timed resolver RPCs) and the denominator must be in the
    same units.  The marginal per-byte cost comes from a cheap
    :class:`BytePipe` transfer — payload volume costs the same either
    way, it is the round trips that differ.
    """

    seconds_per_call: float
    seconds_per_byte: float

    def seconds_for(self, calls: int, nbytes: int) -> float:
        return calls * self.seconds_per_call + nbytes * self.seconds_per_byte

    @classmethod
    def calibrate(cls, rounds: int = 64, payload: int = 4096) -> "BaselineReference":
        import threading

        from repro.runtime.kernel import SimKernel
        from repro.runtime.pipes import BytePipe

        # Per-call: echo round trips over simulated loopback TCP.
        kernel = SimKernel("baseline-calibration")
        ip = kernel.register_node("10.255.255.1")
        listener = kernel.listen(ip, 1)

        def echo() -> None:
            endpoint = listener.accept()
            try:
                while True:
                    chunk = endpoint.recv(64)
                    if not chunk:
                        return
                    endpoint.send_all(chunk)
            except Exception:
                return

        server = threading.Thread(target=echo, daemon=True)
        server.start()
        client = kernel.connect(ip, (ip, 1))
        one = b"x"
        client.send_all(one)  # warm the path before timing
        client.recv(1)
        started = perf_counter()
        for _ in range(rounds):
            client.send_all(one)
            client.recv(1)
        per_call = (perf_counter() - started) / rounds
        client.close()
        listener.close()
        server.join(timeout=5.0)

        # Per-byte: marginal cost of moving payload through a buffer.
        pipe = BytePipe(capacity=max(payload * 2, 64 * 1024))
        big = bytes(payload)
        byte_rounds = 256
        started = perf_counter()
        for _ in range(byte_rounds):
            pipe.write_all(big)
            pipe.read_exact(payload)
        per_payload = (perf_counter() - started) / byte_rounds
        return cls(
            seconds_per_call=max(per_call, 1e-9),
            seconds_per_byte=max(per_payload / payload, 1e-12),
        )


_BASELINE_REFERENCE: Optional[BaselineReference] = None


def baseline_reference() -> BaselineReference:
    """Process-wide calibration, measured once on first use."""
    global _BASELINE_REFERENCE
    if _BASELINE_REFERENCE is None:
        _BASELINE_REFERENCE = BaselineReference.calibrate()
    return _BASELINE_REFERENCE


@dataclass
class SystemProfile:
    """One row of the overhead table."""

    system: str
    scenario: str
    baseline_seconds: float
    dista_seconds: float
    overhead_ratio: float
    crossings: int
    taintmap_rpcs: int
    rpc_p95_seconds: float
    tainted_bytes: int
    wire_bytes: int
    global_taints: int
    #: False when the DisTA run's telemetry reported zero crossings.
    crossings_ok: bool = True
    extras: dict = field(default_factory=dict)


@dataclass
class SweepPoint:
    """One (system, tainted fraction) cell of the sweep."""

    system: str
    tainted_fraction: float
    baseline_seconds: float
    dista_seconds: float
    overhead_ratio: float
    crossings: int
    taintmap_rpcs: int
    fastpath_fast: int
    fastpath_slow: int
    tainted_bytes: int
    wire_bytes: int
    global_taints: int
    #: Fast-path contract check.  At 0% tainted: fast-path hits observed,
    #: zero Taint Map RPCs, zero crossings.  Above 0%: crossings observed.
    fastpath_ok: bool = True


class TaintedFractionSweep:
    """0% → 100% tainted-traffic sweep of DisTA-mode overhead.

    One BASELINE timing per system, reused across the curve; then the
    DisTA SIM workload at each ``source_fraction``, recording the
    zero-taint fast-path hit counts (``dista_fastpath_total``) next to
    the overhead ratio.  The 0% leg doubles as the fast-path canary: it
    must take only fast paths and issue zero Taint Map RPCs, so a
    specialization regression cannot masquerade as noise.
    """

    def __init__(self, systems=None, fractions=DEFAULT_SWEEP_FRACTIONS, repeats: int = 1):
        if repeats < 1:
            raise TelemetryError("repeats must be >= 1")
        self.systems = tuple(systems) if systems is not None else DEFAULT_SYSTEMS
        self.fractions = tuple(fractions)
        self.repeats = repeats
        self.points: list[SweepPoint] = []

    def run(self) -> list[SweepPoint]:
        from repro.systems import ALL_SYSTEMS

        self.points = []
        for name in self.systems:
            module = ALL_SYSTEMS[name]
            baseline = baseline_seconds(module, self.repeats)
            for fraction in self.fractions:
                dista = best_run(
                    module,
                    Mode.DISTA,
                    SIM,
                    self.repeats,
                    DisTAConfig(source_fraction=fraction),
                )
                self.points.append(self._point(name, fraction, baseline, dista))
        return self.points

    def _point(
        self, name: str, fraction: float, baseline_seconds: float, dista
    ) -> SweepPoint:
        telemetry = dista.telemetry
        crossings = int(snapshot_total(telemetry, "dista_crossings_total"))
        rpcs = int(snapshot_total(telemetry, "dista_taintmap_requests_total"))
        fast = int(snapshot_total(telemetry, "dista_fastpath_total", {"path": "fast"}))
        slow = int(snapshot_total(telemetry, "dista_fastpath_total", {"path": "slow"}))
        tainted = int(snapshot_total(telemetry, "dista_jni_tainted_bytes_total"))
        if fraction == 0.0:
            ok = fast > 0 and rpcs == 0 and crossings == 0
        else:
            ok = crossings > 0
        return SweepPoint(
            system=name,
            tainted_fraction=fraction,
            baseline_seconds=baseline_seconds,
            dista_seconds=dista.duration,
            overhead_ratio=(
                dista.duration / baseline_seconds if baseline_seconds > 0 else 0.0
            ),
            crossings=crossings,
            taintmap_rpcs=rpcs,
            fastpath_fast=fast,
            fastpath_slow=slow,
            tainted_bytes=tainted,
            wire_bytes=dista.wire_bytes,
            global_taints=dista.global_taints,
            fastpath_ok=ok,
        )

    # -- reporting ---------------------------------------------------------- #

    def broken_points(self) -> list[SweepPoint]:
        """Points violating the fast-path contract (see ``fastpath_ok``)."""
        return [p for p in self.points if not p.fastpath_ok]

    def as_dict(self) -> dict:
        # Every sweep's points carry the shared schema keys — "system",
        # "point" (x-axis value), "overhead", "coverage" — next to their
        # sweep-specific detail fields, so downstream plotting reads any
        # sweep's JSON the same way.
        points = []
        for point in self.points:
            entry = asdict(point)
            entry.update(
                point=point.tainted_fraction,
                overhead=point.overhead_ratio,
                coverage=point.tainted_fraction,
            )
            points.append(entry)
        return {
            "benchmark": "tainted_fraction_sweep",
            "scenario": SIM,
            "repeats": self.repeats,
            "fractions": list(self.fractions),
            "points": points,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [
            f"{'system':18s} {'frac':>5s} {'baseline':>10s} {'dista':>10s} "
            f"{'overhead':>9s} {'fast':>6s} {'slow':>6s} {'rpcs':>6s} {'cross':>6s}"
        ]
        for p in self.points:
            lines.append(
                f"{p.system:18s} {p.tainted_fraction:5.2f} {p.baseline_seconds:9.4f}s "
                f"{p.dista_seconds:9.4f}s {p.overhead_ratio:8.2f}x {p.fastpath_fast:6d} "
                f"{p.fastpath_slow:6d} {p.taintmap_rpcs:6d} {p.crossings:6d}"
            )
        broken = self.broken_points()
        if broken:
            lines.append(
                "!!! fast-path contract violated: "
                + ", ".join(f"{p.system}@{p.tainted_fraction:.2f}" for p in broken)
            )
        return "\n".join(lines)


def _snapshot_min(snapshot: dict, name: str, labels=None):
    """Min over matching counter/gauge series (the per-node worst case
    for coverage gauges), or ``None``."""
    entry = snapshot.get(name)
    if entry is None or entry["type"] == "histogram":
        return None
    values = [
        s["value"]
        for s in entry["samples"]
        if not labels or all(s["labels"].get(k) == str(v) for k, v in labels.items())
    ]
    return min(values) if values else None


@dataclass
class BudgetPoint:
    """One (system, overhead budget) cell of the budget sweep."""

    system: str
    #: The ceiling this leg ran under; ``None`` = unlimited (no
    #: controller at all — must be bit-identical to unbudgeted runs).
    budget: Optional[float]
    baseline_seconds: float
    dista_seconds: float
    #: Wall overhead vs the BASELINE run (context; dominated by sim
    #: instrumentation, not what the controller governs).
    overhead_ratio: float
    #: Worst per-node steady-state controller estimate: overhead being
    #: paid at the final converged configuration — the governed quantity
    #: the convergence canary checks (0.0 when unlimited).
    controller_ratio: float
    #: Worst per-node tick-windowed EWMA at end of run (context only —
    #: it freezes on the last tick, which in a short workload can be
    #: the breach spike that triggered the final shed).
    smoothed_ratio: float
    #: Tainted bytes relative to this system's unlimited leg — the
    #: headline "coverage bought per unit of budget" number.
    coverage: float
    #: Worst per-node actuator coverage gauges (1.0 when unlimited).
    coverage_sampling: float
    coverage_methods: float
    crossings: int
    taintmap_rpcs: int
    tainted_bytes: int
    sheds: int
    #: The convergence canary: under a ceiling the controller must end
    #: at/below budget (within :data:`BUDGET_CANARY_SLACK`) while still
    #: tracking a nonzero flow set; unlimited legs must show **no**
    #: controller telemetry at all.
    budget_ok: bool = True


class BudgetSweep:
    """Overhead-budget sweep: coverage bought at each ceiling (ISSUE 7).

    Per system: the **unlimited** leg runs first (no controller — the
    no-op reference fixing 100% coverage), then each budgeted leg.  The
    same BASELINE timing and :func:`best_run` lifecycle as the
    tainted-fraction sweep; the same JSON point schema
    (``system``/``point``/``overhead``/``coverage``).
    """

    def __init__(self, systems=None, budgets=DEFAULT_SWEEP_BUDGETS, repeats: int = 1):
        if repeats < 1:
            raise TelemetryError("repeats must be >= 1")
        self.systems = tuple(systems) if systems is not None else DEFAULT_SYSTEMS
        self.budgets = tuple(budgets)
        self.repeats = repeats
        self.points: list[BudgetPoint] = []

    def run(self) -> list[BudgetPoint]:
        from repro.systems import ALL_SYSTEMS

        self.points = []
        for name in self.systems:
            module = ALL_SYSTEMS[name]
            baseline = baseline_seconds(module, self.repeats)
            by_budget: dict = {}
            # Unlimited first: it fixes the 100%-coverage reference the
            # budgeted legs' relative coverage is measured against.
            ordered = [None] + [b for b in self.budgets if b is not None]
            reference_bytes = 0
            for budget in ordered:
                dista = best_run(
                    module,
                    Mode.DISTA,
                    SIM,
                    self.repeats,
                    DisTAConfig(overhead_budget=budget),
                )
                if budget is None:
                    reference_bytes = int(
                        snapshot_total(dista.telemetry, "dista_jni_tainted_bytes_total")
                    )
                by_budget[budget] = self._point(
                    name, budget, baseline, dista, reference_bytes
                )
            self.points.extend(
                by_budget[budget] for budget in self.budgets if budget in by_budget
            )
        return self.points

    def _point(
        self, name: str, budget, baseline: float, dista, reference_bytes: int
    ) -> BudgetPoint:
        telemetry = dista.telemetry
        crossings = int(snapshot_total(telemetry, "dista_crossings_total"))
        rpcs = int(snapshot_total(telemetry, "dista_taintmap_requests_total"))
        tainted = int(snapshot_total(telemetry, "dista_jni_tainted_bytes_total"))
        sheds = int(snapshot_total(telemetry, "dista_budget_sheds_total"))
        ratio = snapshot_max(telemetry, "dista_budget_steady_overhead_ratio")
        ewma = snapshot_max(telemetry, "dista_budget_overhead_ratio")
        sampling = _snapshot_min(
            telemetry, "dista_budget_coverage", {"actuator": "sampling"}
        )
        methods = _snapshot_min(
            telemetry, "dista_budget_coverage", {"actuator": "methods"}
        )
        coverage = tainted / reference_bytes if reference_bytes > 0 else 0.0
        if budget is None:
            # The no-op guarantee: no controller ⇒ no budget telemetry.
            ok = ratio is None and ewma is None and sheds == 0 and crossings > 0
        else:
            ok = (
                tainted > 0
                and crossings > 0
                and ratio is not None
                and ratio <= budget + BUDGET_CANARY_SLACK
            )
        return BudgetPoint(
            system=name,
            budget=budget,
            baseline_seconds=baseline,
            dista_seconds=dista.duration,
            overhead_ratio=dista.duration / baseline if baseline > 0 else 0.0,
            controller_ratio=ratio if ratio is not None else 0.0,
            smoothed_ratio=ewma if ewma is not None else 0.0,
            coverage=coverage,
            coverage_sampling=sampling if sampling is not None else 1.0,
            coverage_methods=methods if methods is not None else 1.0,
            crossings=crossings,
            taintmap_rpcs=rpcs,
            tainted_bytes=tainted,
            sheds=sheds,
            budget_ok=ok,
        )

    # -- reporting ---------------------------------------------------------- #

    def broken_points(self) -> list[BudgetPoint]:
        """Points violating the convergence canary (see ``budget_ok``)."""
        return [p for p in self.points if not p.budget_ok]

    def as_dict(self) -> dict:
        points = []
        for point in self.points:
            entry = asdict(point)
            entry.update(
                point=point.budget if point.budget is not None else "unlimited",
                overhead=point.overhead_ratio,
                coverage=point.coverage,
            )
            points.append(entry)
        return {
            "benchmark": "budget_sweep",
            "scenario": SIM,
            "repeats": self.repeats,
            "budgets": [b if b is not None else "unlimited" for b in self.budgets],
            "canary_slack": BUDGET_CANARY_SLACK,
            "points": points,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [
            f"{'system':18s} {'budget':>9s} {'ctrl':>6s} {'cover':>6s} "
            f"{'smpl':>5s} {'meth':>5s} {'sheds':>6s} {'bytes':>8s} {'cross':>6s}"
        ]
        for p in self.points:
            budget = f"{p.budget:.2f}x" if p.budget is not None else "unlim"
            lines.append(
                f"{p.system:18s} {budget:>9s} {p.controller_ratio:5.2f}x "
                f"{p.coverage:6.3f} {p.coverage_sampling:5.2f} "
                f"{p.coverage_methods:5.2f} {p.sheds:6d} {p.tainted_bytes:8d} "
                f"{p.crossings:6d}"
            )
        broken = self.broken_points()
        if broken:
            lines.append(
                "!!! budget canary violated: "
                + ", ".join(
                    f"{p.system}@{p.budget if p.budget is not None else 'unlimited'}"
                    for p in broken
                )
            )
        return "\n".join(lines)


class OverheadProfiler:
    """Runs baseline-vs-DisTA pairs and collects :class:`SystemProfile` rows."""

    def __init__(self, systems=None, scenario: str = SIM, repeats: int = 1):
        if repeats < 1:
            raise TelemetryError("repeats must be >= 1")
        self.systems = tuple(systems) if systems is not None else DEFAULT_SYSTEMS
        self.scenario = scenario
        self.repeats = repeats
        self.profiles: list[SystemProfile] = []

    def run(self) -> list[SystemProfile]:
        from repro.systems import ALL_SYSTEMS

        self.profiles = []
        for name in self.systems:
            module = ALL_SYSTEMS[name]
            baseline = baseline_seconds(module, self.repeats)
            dista = best_run(module, Mode.DISTA, self.scenario, self.repeats)
            self.profiles.append(self._profile(name, baseline, dista))
        return self.profiles

    def _profile(self, name: str, baseline_seconds: float, dista) -> SystemProfile:
        telemetry = dista.telemetry
        crossings = int(snapshot_total(telemetry, "dista_crossings_total"))
        rpcs = int(snapshot_total(telemetry, "dista_taintmap_requests_total"))
        p95 = snapshot_quantile(telemetry, "dista_taintmap_rpc_seconds", 0.95)
        tainted = int(snapshot_total(telemetry, "dista_jni_tainted_bytes_total"))
        return SystemProfile(
            system=name,
            scenario=self.scenario,
            baseline_seconds=baseline_seconds,
            dista_seconds=dista.duration,
            overhead_ratio=(
                dista.duration / baseline_seconds if baseline_seconds > 0 else 0.0
            ),
            crossings=crossings,
            taintmap_rpcs=rpcs,
            rpc_p95_seconds=p95 if p95 is not None else 0.0,
            tainted_bytes=tainted,
            wire_bytes=dista.wire_bytes,
            global_taints=dista.global_taints,
            crossings_ok=crossings > 0,
            extras={},
        )

    # -- reporting ---------------------------------------------------------- #

    def broken_systems(self) -> list[str]:
        """Systems whose DisTA run reported zero crossings (regression)."""
        return [p.system for p in self.profiles if not p.crossings_ok]

    def as_dict(self) -> dict:
        return {
            "benchmark": "overhead_profile",
            "scenario": self.scenario,
            "repeats": self.repeats,
            "systems": [asdict(profile) for profile in self.profiles],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [
            f"{'system':18s} {'baseline':>10s} {'dista':>10s} {'overhead':>9s} "
            f"{'crossings':>9s} {'rpcs':>6s} {'rpc p95':>10s}"
        ]
        for p in self.profiles:
            lines.append(
                f"{p.system:18s} {p.baseline_seconds:9.4f}s {p.dista_seconds:9.4f}s "
                f"{p.overhead_ratio:8.2f}x {p.crossings:9d} {p.taintmap_rpcs:6d} "
                f"{p.rpc_p95_seconds * 1e6:8.0f}us"
            )
        broken = self.broken_systems()
        if broken:
            lines.append(f"!!! zero crossings under DisTA: {', '.join(broken)}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Flow-lineage overhead sweep (PR 9)
# --------------------------------------------------------------------- #

#: Fractions the lineage sweep visits: the two fast-path extremes.  0%
#: proves the recorder rides the ``labels is None`` fast path (no flows,
#: no cost); 100% prices full capture on an all-tainted workload.
DEFAULT_LINEAGE_FRACTIONS = (0.0, 1.0)


@dataclass
class LineagePoint:
    """One (system, tainted fraction) cell of the lineage sweep."""

    system: str
    tainted_fraction: float
    #: Median DisTA SIM timing without lineage (the PR 6 configuration).
    off_seconds: float
    #: Median of the same cell with a LineageStore (and its
    #: CrossingTrace) attached, run paired with the off leg.
    on_seconds: float
    #: Aggregate paired ratio sum(on)/sum(off) — the marginal cost of
    #: lineage capture, not of DisTA (pairing cancels machine drift).
    #: Recorded, never gated: it is smaller than run-to-run spread.
    lineage_ratio: float
    flows: int
    completed: int
    multi_hop: int
    max_depth: int
    evicted: int
    #: Structural contract: zero evictions always; no flows at 0%
    #: tainted (the recorder never fires on fast-path traffic); at
    #: higher fractions at least one completed flow reconstructs.
    lineage_ok: bool = True


class LineageOverheadSweep:
    """Lineage-on vs lineage-off at the tainted-fraction extremes.

    Both legs run ``Mode.DISTA`` SIM — the comparison isolates what the
    *observability layer* adds on top of tracking at 0% and 100% tainted
    traffic.  The lineage-on leg honestly pays for the auto-created
    CrossingTrace it stitches from.

    Timing discipline differs from the other sweeps on purpose: the two
    legs run **paired** (off, on, off, on, …; one discarded warmup pair
    per cell) and the reported ratio is the **aggregate paired ratio**
    ``sum(on) / sum(off)``, not a ratio of independent minima.  The
    marginal cost being priced is a few percent — smaller than the
    workloads' run-to-run spread — and independent minima let one leg
    land in its extreme left tail while the other doesn't, inflating
    (or hiding) the ratio.  Pairing cancels machine drift (load spans
    adjacent runs, so it hits both legs), summing before dividing
    weights each pair by its duration instead of letting one noisy
    short run dominate, and with ≥ 4 pairs the highest- and
    lowest-ratio pair are both trimmed first — a symmetric (unbiased)
    trim that removes the occasional loaded-box outlier pair.
    """

    def __init__(
        self, systems=None, fractions=DEFAULT_LINEAGE_FRACTIONS, repeats: int = 1
    ):
        if repeats < 1:
            raise TelemetryError("repeats must be >= 1")
        self.systems = tuple(systems) if systems is not None else DEFAULT_SYSTEMS
        self.fractions = tuple(fractions)
        self.repeats = repeats
        self.points: list[LineagePoint] = []

    def run(self) -> list[LineagePoint]:
        from repro.systems import ALL_SYSTEMS

        self.points = []
        for name in self.systems:
            module = ALL_SYSTEMS[name]
            for fraction in self.fractions:
                self.points.append(self._measure_cell(module, name, fraction))
        return self.points

    def _measure_cell(self, module, name: str, fraction: float) -> "LineagePoint":
        off_times: list = []
        on_times: list = []
        on = None
        off_config = DisTAConfig(source_fraction=fraction)
        on_config = DisTAConfig(source_fraction=fraction, lineage=True)
        # One discarded warmup pair: first runs of a cell pay one-time
        # cache/allocator effects both legs share.
        for repeat in range(self.repeats + 1):
            off_run = module.run_workload(Mode.DISTA, SIM, off_config)
            on = module.run_workload(Mode.DISTA, SIM, on_config)
            if repeat == 0:
                continue
            off_times.append(off_run.duration)
            on_times.append(on.duration)
        return self._point(name, fraction, off_times, on_times, on)

    def _point(
        self, name: str, fraction: float, off_times: list, on_times: list, on
    ) -> LineagePoint:
        store = on.extras["lineage"]
        flows = store.flows()
        completed = [f for f in flows if f.completed]
        multi_hop = [f for f in completed if len(f.hops) >= 2]
        max_depth = max((f.max_depth for f in flows), default=0)
        if fraction == 0.0:
            ok = store.evicted == 0 and not flows
        else:
            ok = store.evicted == 0 and bool(completed)
        pairs = [
            (off_s, on_s) for off_s, on_s in zip(off_times, on_times) if off_s > 0
        ]
        if len(pairs) >= 4:
            pairs.sort(key=lambda pair: pair[1] / pair[0])
            pairs = pairs[1:-1]
        off_total = sum(off_s for off_s, _ in pairs)
        on_total = sum(on_s for _, on_s in pairs)
        return LineagePoint(
            system=name,
            tainted_fraction=fraction,
            off_seconds=median(off_times),
            on_seconds=median(on_times),
            lineage_ratio=(on_total / off_total if off_total > 0 else 0.0),
            flows=len(flows),
            completed=len(completed),
            multi_hop=len(multi_hop),
            max_depth=max_depth,
            evicted=store.evicted,
            lineage_ok=ok,
        )

    # -- reporting ---------------------------------------------------------- #

    def broken_points(self) -> list[LineagePoint]:
        """Points violating the structural lineage contract."""
        return [p for p in self.points if not p.lineage_ok]

    def as_dict(self) -> dict:
        points = []
        for point in self.points:
            entry = asdict(point)
            entry.update(
                point=point.tainted_fraction,
                overhead=point.lineage_ratio,
                coverage=point.tainted_fraction,
            )
            points.append(entry)
        return {
            "benchmark": "lineage_overhead",
            "scenario": SIM,
            "repeats": self.repeats,
            "fractions": list(self.fractions),
            "points": points,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [
            f"{'system':18s} {'frac':>5s} {'off':>10s} {'on':>10s} "
            f"{'lineage':>8s} {'flows':>6s} {'done':>5s} {'depth':>6s} {'evict':>6s}"
        ]
        for p in self.points:
            lines.append(
                f"{p.system:18s} {p.tainted_fraction:5.2f} {p.off_seconds:9.4f}s "
                f"{p.on_seconds:9.4f}s {p.lineage_ratio:7.3f}x {p.flows:6d} "
                f"{p.completed:5d} {p.max_depth:6d} {p.evicted:6d}"
            )
        broken = self.broken_points()
        if broken:
            lines.append(
                "!!! lineage contract violated: "
                + ", ".join(f"{p.system}@{p.tainted_fraction:.2f}" for p in broken)
            )
        return "\n".join(lines)
