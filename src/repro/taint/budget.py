"""Budgeted taint tracking: the overhead-budget controller (ISSUE 7).

DisTA pays full instrumentation cost on every boundary crossing; fine
for debugging, unaffordable for production traffic.  HardTaint and the
partial-instrumentation line of work show that tracking a *subset* of
flows and methods recovers most taint coverage at a fraction of the
overhead.  This module turns that observation into a feedback loop: a
per-node :class:`OverheadBudgetController` (the PR 5 AIMD mold) that
converges tracking coverage to a hard overhead ceiling
(:data:`DEFAULT_OVERHEAD_BUDGET`, ≤5% over baseline by default).

Two actuators, both dispatching through the PR 6 ``labels is None``
zero-taint fast path — so *untracked* traffic costs exactly what
*untainted* traffic costs, and wire frames stay byte-identical (an
all-zero GID column, no new opcodes):

* **Flow sampling** — deterministic track-every-``k``-th admission at
  source registration (:class:`~repro.taint.sources.SourceSinkRegistry`
  consults its ``sample_every`` attribute before tainting).  A
  sampled-out flow's value is returned untainted, so it never touches
  the resolver or the Taint Map anywhere downstream.  ``k`` doubles on
  a budget breach (multiplicative shed) and steps back by 1 on
  headroom (additive recovery).
* **Per-JNI-method gating** — a ranked enable/disable table over the
  send-side wrapped methods (:data:`GATEABLE_SEND_METHODS`).  A gated
  method strips labels from outgoing data, which pushes the *entire*
  downstream path — encode, wire, every receiver — onto the fast path
  cluster-wide.  The ranking is steered by the same per-method
  bytes/tainted-bytes telemetry ``record_io`` feeds the metrics: the
  most expensive lowest-yield method (most bytes per tainted byte)
  sheds first, and methods are restored in reverse shed order.

The controller's overhead signal is the **marginal tracking surcharge
this node originates**: wall time measured inside the label resolver's
taint→GID (encode) direction — GID registration and its Taint Map
round-trips, the work only this node's outbound labels pay — compared
to a calibrated estimate of what the same traffic volume costs
uninstrumented (``BaselineReference`` from :mod:`repro.obs.profiler`).
Receive-side decode cost is deliberately excluded: a receiver has no
actuator for labels someone else sent, so that cost belongs to (and is
shed by) the sender's controller via gating.
The PR 6 fast-path floor (carrying 5× frames) is *not* counted against
the budget: it is not sheddable without changing the wire format, and
by construction the actuators can only converge tracking cost down to
that floor.  Estimates are windowed deltas, never cumulative totals, so
a long-lived node converges instead of averaging over its history.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

#: The default hard ceiling: tracking surcharge ≤5% over baseline.
DEFAULT_OVERHEAD_BUDGET = 1.05

#: Controller evaluation cadence, in wrapped JNI calls.  SIM workloads
#: cross the boundary O(100) times, so single-digit cadence gives the
#: AIMD loop enough ticks to converge within one run.
DEFAULT_TICK_CALLS = 8

#: Ceiling for the sampling actuator's ``k`` (beyond this, shedding
#: escalates to method gating).  Deliberately modest: past 1-in-64
#: admission the marginal saving of rarer sampling is noise, and the
#: controller should spend its remaining authority on gating — which
#: also sheds the *receive-side* resolver cost of flows already
#: admitted, the part sampling can never claw back.
MAX_SAMPLE_EVERY = 64

#: Fraction of the budget headroom below which coverage is restored:
#: recover when ratio < 1 + (budget - 1) * HEADROOM_FRACTION.
HEADROOM_FRACTION = 0.5

#: EWMA weight of the newest window in the exported overhead ratio when
#: the estimate is RISING — smoothed, so one noisy window does not shed.
EWMA_ALPHA = 0.5

#: EWMA weight when the estimate is FALLING.  Deliberately asymmetric:
#: once a shed takes effect the clean windows that follow should pull
#: the estimate under the ceiling within a few ticks (short workloads
#: included), instead of paying the full decay of the breach spike.
EWMA_ALPHA_DOWN = 0.8

#: Maximum shed steps applied on one breach tick.  Shedding is scaled
#: to the overshoot (one extra step per doubling of ratio over budget),
#: so a 20× breach converges in a few ticks instead of a few dozen.
MAX_SHED_STEPS = 6

#: Consecutive headroom ticks required before one recovery step —
#: recovery is additive AND patient, so the AIMD loop spends most of
#: its time under the ceiling rather than oscillating across it.
RECOVERY_PATIENCE = 3

#: The send-side wrapped methods the gating actuator may disable, in
#: ``record_io`` naming.  Gating a *sender* keeps every wire frame
#: byte-identical to untainted traffic, so receivers (gated or not)
#: take the zero-taint fast path for free; receive methods are never
#: gated because their cost is dictated by what the wire carries.
GATEABLE_SEND_METHODS = (
    "socketWrite0",
    "datagram.send",
    "dispatcher.write0",
    "dgram_dispatcher.write0",
    "dgram_channel.send0",
)


@dataclass(frozen=True)
class BudgetConfig:
    """Knobs of one node's budget controller."""

    #: Hard overhead ceiling as a ratio over baseline (1.05 = ≤5%).
    #: ``None`` means unlimited — the controller is not created at all
    #: and behaviour is bit-identical to unbudgeted tracking.
    overhead_budget: Optional[float] = DEFAULT_OVERHEAD_BUDGET
    #: Initial and minimum flow-sampling period (track every k-th flow).
    #: The controller sheds *above* this floor but never recovers below
    #: it, so an explicit ``sample_every`` is honoured as a cap on
    #: coverage even under unlimited headroom.
    sample_every: int = 1
    tick_calls: int = DEFAULT_TICK_CALLS
    max_sample_every: int = MAX_SAMPLE_EVERY
    headroom_fraction: float = HEADROOM_FRACTION

    def __post_init__(self) -> None:
        if self.overhead_budget is not None and self.overhead_budget < 1.0:
            raise ValueError(
                f"overhead budget must be >= 1.0 (a ratio over baseline), "
                f"got {self.overhead_budget}"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.tick_calls < 1:
            raise ValueError(f"tick_calls must be >= 1, got {self.tick_calls}")

    @property
    def recovery_threshold(self) -> Optional[float]:
        """Ratio below which coverage is restored (AIMD headroom)."""
        if self.overhead_budget is None:
            return None
        return 1.0 + (self.overhead_budget - 1.0) * self.headroom_fraction


class OverheadBudgetController:
    """AIMD controller converging one node's tracking cost to a budget.

    Fed on every wrapper crossing (``account_io``) and by the timed
    label resolver (``add_tracking_seconds``); every ``tick_calls``
    crossings it closes the loop:

    * **breach** (windowed ratio > budget): shed — double the sampling
      period ``k`` (multiplicative), once per doubling of the overshoot
      (severity-scaled, capped at :data:`MAX_SHED_STEPS` steps per
      tick); once ``k`` is at its ceiling, gate the most expensive
      lowest-yield send method still enabled.
    * **headroom** (ratio < recovery threshold for
      :data:`RECOVERY_PATIENCE` consecutive ticks): recover — re-enable
      the most recently gated method first (reverse shed order), then
      step ``k`` back by 1 (additive) down to its configured floor.

    Exports ``dista_budget_overhead_ratio`` (EWMA of the windowed
    estimate), ``dista_budget_coverage{actuator}`` (sampling: 1/k;
    methods: enabled fraction of the gateable table) and
    ``dista_budget_sheds_total{actuator}``.
    """

    def __init__(
        self,
        config: BudgetConfig,
        baseline,
        registry=None,
        metrics=None,
    ):
        #: ``baseline`` is a BaselineReference (repro.obs.profiler):
        #: calibrated per-call/per-byte cost of uninstrumented I/O.
        self.config = config
        self.baseline = baseline
        #: The node's SourceSinkRegistry — the sampling actuator writes
        #: its ``sample_every`` attribute.  ``None`` in unit tests.
        self.registry = registry
        self._lock = threading.Lock()
        self.sample_every = config.sample_every
        if registry is not None:
            registry.sample_every = self.sample_every
        #: Gated send methods, most recently shed last (a stack, so
        #: recovery is reverse shed order).  Read lock-free on the hot
        #: path via the frozenset mirror below.
        self._gate_stack: list[str] = []
        self._gated: frozenset[str] = frozenset()
        #: Per-method cumulative send-side traffic for the gate ranking.
        self._method_bytes: dict[str, int] = {}
        self._method_tainted: dict[str, int] = {}
        # Window accumulators (reset every tick).
        self._window_calls = 0
        self._window_bytes = 0
        self._tracking_seconds = 0.0
        self._headroom_ticks = 0
        # Steady-state accumulators (reset on every actuation): the
        # tracking cost and traffic volume carried since the controller
        # last changed its configuration.  Read live at scrape time, so
        # the final partial window counts — this is the "overhead being
        # paid NOW, at the converged coverage" number the benchmark's
        # convergence canary checks, as opposed to the tick-windowed
        # EWMA that freezes on whatever the last (possibly breaching)
        # window looked like.
        self._steady_tracking = 0.0
        self._steady_calls = 0
        self._steady_bytes = 0
        self.overhead_ratio = 1.0
        self.ticks = 0
        self.sheds = 0
        self._ratio_gauge = None
        self._coverage_gauge = None
        self._sheds_counter = None
        if metrics is not None:
            self._ratio_gauge = metrics.gauge(
                "dista_budget_overhead_ratio",
                "EWMA of the controller's windowed tracking-overhead "
                "estimate: 1 + resolver seconds / calibrated baseline "
                "seconds for the same traffic window.",
            )
            self._ratio_gauge.set(1.0)
            self._coverage_gauge = metrics.gauge(
                "dista_budget_coverage",
                "Tracking coverage per actuator: sampling = admitted "
                "flow fraction target (1/k), methods = enabled fraction "
                "of the gateable send-method table.",
                ("actuator",),
            )
            self._sheds_counter = metrics.counter(
                "dista_budget_sheds_total",
                "Coverage-shedding actions taken on budget breach.",
                ("actuator",),
            )
            # Pre-declare both actuator series so /metrics has the full
            # shape even before the first shed.
            for actuator in ("sampling", "methods"):
                self._sheds_counter.labels(actuator=actuator)
            self._publish_coverage()
            metrics.register_collector(self._steady_fragment)

    # -- hot-path feeds --------------------------------------------------- #

    def is_gated(self, method: str) -> bool:
        """Lock-free gate check (frozenset replaced atomically)."""
        return method in self._gated

    def add_tracking_seconds(self, seconds: float) -> None:
        """Wall time spent in tracking-only work (the timed resolver)."""
        with self._lock:
            self._tracking_seconds += seconds
            self._steady_tracking += seconds

    def account_io(self, method: str, direction: str, nbytes: int, tainted: int) -> None:
        """One wrapper crossing; drives the tick cadence."""
        with self._lock:
            self._window_calls += 1
            self._window_bytes += nbytes
            self._steady_calls += 1
            self._steady_bytes += nbytes
            if direction == "send":
                self._method_bytes[method] = self._method_bytes.get(method, 0) + nbytes
                self._method_tainted[method] = (
                    self._method_tainted.get(method, 0) + tainted
                )
            due = self._window_calls >= self.config.tick_calls
        if due:
            self.tick()

    # -- control loop ------------------------------------------------------ #

    def _window_ratio(self) -> Optional[float]:
        """Overhead estimate for the current window, or ``None`` when
        the window carried no traffic to normalize against."""
        baseline_s = self.baseline.seconds_for(self._window_calls, self._window_bytes)
        if baseline_s <= 0.0:
            return None
        return 1.0 + self._tracking_seconds / baseline_s

    def tick(self) -> dict:
        """Close the loop over the accumulated window.

        Returns the tick's observation (for tests and the sweep); safe
        to call manually even off-cadence.
        """
        with self._lock:
            ratio = self._window_ratio()
            self._window_calls = 0
            self._window_bytes = 0
            self._tracking_seconds = 0.0
            if ratio is not None:
                alpha = EWMA_ALPHA if ratio > self.overhead_ratio else EWMA_ALPHA_DOWN
                self.overhead_ratio = (
                    alpha * ratio + (1.0 - alpha) * self.overhead_ratio
                )
            self.ticks += 1
            action = "hold"
            budget = self.config.overhead_budget
            if budget is not None and ratio is not None:
                if self.overhead_ratio > budget:
                    self._headroom_ticks = 0
                    action = self._shed_locked(ratio / budget)
                elif self.overhead_ratio < self.config.recovery_threshold:
                    self._headroom_ticks += 1
                    if self._headroom_ticks >= RECOVERY_PATIENCE:
                        self._headroom_ticks = 0
                        action = self._recover_locked()
                else:
                    self._headroom_ticks = 0
            if action != "hold":
                # New configuration, new steady-state measurement.
                self._steady_tracking = 0.0
                self._steady_calls = 0
                self._steady_bytes = 0
            smoothed = self.overhead_ratio
        if self._ratio_gauge is not None:
            self._ratio_gauge.set(smoothed)
        self._publish_coverage()
        return {"ratio": ratio, "smoothed": smoothed, "action": action}

    def _shed_locked(self, overshoot: float) -> str:
        """Shed coverage, scaled to the overshoot: one step per doubling
        of the window ratio over budget (capped), each step either
        doubling ``k`` or gating one more method once ``k`` is maxed."""
        steps = 1
        if overshoot > 2.0:
            steps = min(MAX_SHED_STEPS, 1 + int(math.log2(overshoot)))
        actions = []
        for _ in range(steps):
            if self.sample_every < self.config.max_sample_every:
                self.sample_every = min(
                    self.sample_every * 2, self.config.max_sample_every
                )
                if self.registry is not None:
                    self.registry.sample_every = self.sample_every
                self._count_shed("sampling")
                actions.append("shed:sampling")
                continue
            method = self._worst_enabled_method()
            if method is None:
                break
            self._gate_stack.append(method)
            self._gated = frozenset(self._gate_stack)
            self._count_shed("methods")
            actions.append(f"shed:gate:{method}")
        return "+".join(actions) if actions else "hold"

    def _recover_locked(self) -> str:
        if self._gate_stack:
            method = self._gate_stack.pop()
            self._gated = frozenset(self._gate_stack)
            return f"recover:ungate:{method}"
        if self.sample_every > self.config.sample_every:
            self.sample_every -= 1
            if self.registry is not None:
                self.registry.sample_every = self.sample_every
            return "recover:sampling"
        return "hold"

    def _worst_enabled_method(self) -> Optional[str]:
        """Most expensive lowest-yield enabled sender: most observed
        bytes per tainted byte; untraversed methods are never gated."""
        best = None
        best_score = -1.0
        for method in GATEABLE_SEND_METHODS:
            if method in self._gated:
                continue
            nbytes = self._method_bytes.get(method, 0)
            if nbytes <= 0:
                continue
            score = nbytes / (self._method_tainted.get(method, 0) + 1.0)
            if score > best_score:
                best, best_score = method, score
        return best

    def _count_shed(self, actuator: str) -> None:
        self.sheds += 1
        if self._sheds_counter is not None:
            self._sheds_counter.labels(actuator=actuator).inc()

    # -- reporting ---------------------------------------------------------- #

    def steady_ratio(self) -> Optional[float]:
        """Overhead at the current configuration: tracking cost over
        traffic carried since the last actuation (``None`` when no
        traffic has flowed since)."""
        with self._lock:
            baseline_s = self.baseline.seconds_for(
                self._steady_calls, self._steady_bytes
            )
            if baseline_s <= 0.0:
                return None
            return 1.0 + self._steady_tracking / baseline_s

    def _steady_fragment(self) -> dict:
        """Scrape-time collector for the steady-state ratio gauge."""
        value = self.steady_ratio()
        return {
            "dista_budget_steady_overhead_ratio": {
                "type": "gauge",
                "help": "Tracking overhead at the controller's current "
                "configuration: 1 + tracking seconds / calibrated "
                "baseline seconds accumulated since the last actuation "
                "(read live, so the final partial window counts).",
                "samples": [{"labels": {}, "value": value if value is not None else 1.0}],
            }
        }

    @property
    def gated_methods(self) -> tuple[str, ...]:
        return tuple(self._gate_stack)

    def coverage(self) -> dict:
        """Current coverage per actuator, both in [0, 1]."""
        total = len(GATEABLE_SEND_METHODS)
        return {
            "sampling": 1.0 / self.sample_every,
            "methods": (total - len(self._gated)) / total,
        }

    def _publish_coverage(self) -> None:
        if self._coverage_gauge is None:
            return
        for actuator, value in self.coverage().items():
            self._coverage_gauge.labels(actuator=actuator).set(value)
