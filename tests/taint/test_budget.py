"""Unit tests for the overhead-budget controller (budgeted tracking).

The controller under test is pure control logic: it is fed a fake
calibrated baseline (fixed cost per call, free bytes) and synthetic
tracking time, so every AIMD transition — breach, severity scaling,
escalation to gating, patience-gated recovery — is exercised
deterministically, without a cluster or a clock.
"""

from types import SimpleNamespace

import pytest

from repro.obs.registry import MetricsRegistry, snapshot_max, snapshot_total
from repro.taint.budget import (
    GATEABLE_SEND_METHODS,
    MAX_SHED_STEPS,
    RECOVERY_PATIENCE,
    BudgetConfig,
    OverheadBudgetController,
)


class FlatBaseline:
    """Stand-in BaselineReference: one second per call, free bytes."""

    def __init__(self, per_call: float = 1.0, per_byte: float = 0.0):
        self.per_call = per_call
        self.per_byte = per_byte

    def seconds_for(self, calls: int, nbytes: int) -> float:
        return calls * self.per_call + nbytes * self.per_byte


def make_controller(
    budget=1.05,
    sample_every=1,
    max_k=64,
    registry=None,
    metrics=None,
):
    config = BudgetConfig(
        overhead_budget=budget,
        sample_every=sample_every,
        # High cadence so tests tick the loop explicitly.
        tick_calls=10_000,
        max_sample_every=max_k,
    )
    return OverheadBudgetController(
        config, FlatBaseline(), registry=registry, metrics=metrics
    )


def drive(controller, tracking: float, calls: int = 1, sends=()):
    """One window: ``tracking`` seconds of resolver time over ``calls``
    boundary crossings (1s baseline each), then close the loop."""
    controller.add_tracking_seconds(tracking)
    for method, nbytes, tainted in sends:
        controller.account_io(method, "send", nbytes, tainted)
    for _ in range(calls - len(sends)):
        controller.account_io("socketRead0", "recv", 0, 0)
    return controller.tick()


class TestBudgetConfig:
    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="overhead budget"):
            BudgetConfig(overhead_budget=0.5)

    def test_sample_every_below_one_rejected(self):
        with pytest.raises(ValueError, match="sample_every"):
            BudgetConfig(sample_every=0)

    def test_tick_calls_below_one_rejected(self):
        with pytest.raises(ValueError, match="tick_calls"):
            BudgetConfig(tick_calls=0)

    def test_unlimited_budget_allowed(self):
        config = BudgetConfig(overhead_budget=None)
        assert config.recovery_threshold is None

    def test_recovery_threshold_halves_the_headroom(self):
        config = BudgetConfig(overhead_budget=1.10)
        assert config.recovery_threshold == pytest.approx(1.05)


class TestShedding:
    def test_clean_window_holds(self):
        controller = make_controller()
        result = drive(controller, tracking=0.0)
        assert result["action"] == "hold"
        assert controller.sample_every == 1
        assert controller.sheds == 0

    def test_breach_doubles_sampling_period(self):
        registry = SimpleNamespace(sample_every=1)
        controller = make_controller(registry=registry)
        result = drive(controller, tracking=0.2)  # ratio 1.2 > 1.05
        assert result["action"] == "shed:sampling"
        assert controller.sample_every == 2
        # The actuator writes straight into the source registry.
        assert registry.sample_every == 2

    def test_shed_steps_scale_with_overshoot(self):
        """A 100x breach sheds multiple doublings in one tick, not one."""
        controller = make_controller()
        result = drive(controller, tracking=100.0)
        assert result["action"].count("shed:sampling") == MAX_SHED_STEPS
        assert controller.sample_every == 2**MAX_SHED_STEPS
        assert controller.sheds == MAX_SHED_STEPS

    def test_mild_breach_sheds_exactly_one_step(self):
        controller = make_controller()
        drive(controller, tracking=0.2)
        assert controller.sample_every == 2
        assert controller.sheds == 1

    def test_escalates_to_gating_worst_yield_method_first(self):
        controller = make_controller(max_k=2)
        sends = [
            # High volume, zero tainted yield: the obvious first gate.
            ("socketWrite0", 1000, 0),
            # Same volume but nearly all tainted: high yield, gated last.
            ("dispatcher.write0", 1000, 999),
        ]
        first = drive(controller, tracking=0.4, calls=2, sends=sends)
        assert first["action"] == "shed:sampling"  # k 1 -> 2 (= max)
        second = drive(controller, tracking=0.4, calls=2, sends=sends)
        assert second["action"] == "shed:gate:socketWrite0"
        assert controller.is_gated("socketWrite0")
        assert not controller.is_gated("dispatcher.write0")
        third = drive(controller, tracking=0.4, calls=2, sends=sends)
        assert third["action"] == "shed:gate:dispatcher.write0"
        assert controller.gated_methods == ("socketWrite0", "dispatcher.write0")
        assert controller.coverage()["methods"] == pytest.approx(
            (len(GATEABLE_SEND_METHODS) - 2) / len(GATEABLE_SEND_METHODS)
        )

    def test_untraversed_methods_are_never_gated(self):
        """With no observed send traffic there is nothing worth gating:
        the controller holds rather than gating a method blindly."""
        controller = make_controller(max_k=2)
        drive(controller, tracking=0.2)  # k 1 -> 2 (= max)
        result = drive(controller, tracking=0.2)
        assert result["action"] == "hold"
        assert controller.gated_methods == ()


def drain_until_action(controller, limit=10):
    """Clean windows until the controller acts; (ticks taken, action)."""
    for tick in range(1, limit + 1):
        action = drive(controller, tracking=0.0)["action"]
        if action != "hold":
            return tick, action
    return limit, "hold"


class TestRecovery:
    def gated_controller(self):
        controller = make_controller(max_k=2)
        sends = [("socketWrite0", 1000, 0)]
        drive(controller, tracking=0.2, sends=sends)  # k -> 2
        drive(controller, tracking=0.2, sends=sends)  # gate socketWrite0
        assert controller.is_gated("socketWrite0")
        return controller

    def test_recovery_requires_consecutive_headroom(self):
        controller = self.gated_controller()
        ticks, action = drain_until_action(controller)
        # The EWMA needs a clean window or two to settle under the
        # recovery threshold, then patience must rebuild — either way
        # recovery cannot land sooner than RECOVERY_PATIENCE ticks.
        assert ticks >= RECOVERY_PATIENCE
        assert action == "recover:ungate:socketWrite0"
        assert not controller.is_gated("socketWrite0")

    def test_breach_resets_patience(self):
        controller = self.gated_controller()
        drive(controller, tracking=0.0)
        drive(controller, tracking=0.0)
        drive(controller, tracking=5.0)  # breach: patience lost
        for _ in range(RECOVERY_PATIENCE - 1):
            # The EWMA needs a couple of clean windows to fall back
            # under the recovery threshold; either way no recovery can
            # land before patience rebuilds.
            result = drive(controller, tracking=0.0)
            assert not result["action"].startswith("recover")
        assert controller.is_gated("socketWrite0")

    def test_recovery_order_is_reverse_shed_order(self):
        """Gates reopen before sampling relaxes, newest gate first."""
        controller = make_controller(max_k=2)
        sends = [("socketWrite0", 1000, 0), ("dispatcher.write0", 1000, 999)]
        drive(controller, tracking=0.4, calls=2, sends=sends)
        drive(controller, tracking=0.4, calls=2, sends=sends)
        drive(controller, tracking=0.4, calls=2, sends=sends)
        assert controller.gated_methods == ("socketWrite0", "dispatcher.write0")

        actions = []
        for _ in range(6 * RECOVERY_PATIENCE):
            action = drive(controller, tracking=0.0)["action"]
            if action != "hold":
                actions.append(action)
        assert actions == [
            "recover:ungate:dispatcher.write0",
            "recover:ungate:socketWrite0",
            "recover:sampling",
        ]
        assert controller.sample_every == 1

    def test_configured_sample_floor_is_honoured(self):
        """An explicit sample_every is a coverage cap: recovery never
        relaxes sampling below the configured floor."""
        controller = make_controller(sample_every=4)
        assert controller.sample_every == 4
        drive(controller, tracking=0.2)
        assert controller.sample_every == 8
        for _ in range(6 * RECOVERY_PATIENCE):
            drive(controller, tracking=0.0)
        assert controller.sample_every == 4


class TestEstimates:
    def test_ewma_is_asymmetric(self):
        """One breach spike decays under the ceiling within two clean
        windows (the fast-down weighting), instead of lingering."""
        controller = make_controller()
        spike = drive(controller, tracking=0.2)
        assert spike["smoothed"] > 1.05
        clean = drive(controller, tracking=0.0)
        assert clean["smoothed"] < 1.05

    def test_empty_window_is_not_an_observation(self):
        controller = make_controller()
        result = controller.tick()
        assert result["ratio"] is None
        assert result["action"] == "hold"
        assert result["smoothed"] == 1.0

    def test_steady_ratio_resets_on_actuation(self):
        controller = make_controller()
        controller.add_tracking_seconds(0.5)
        controller.account_io("socketRead0", "recv", 0, 0)
        controller.account_io("socketRead0", "recv", 0, 0)
        assert controller.steady_ratio() == pytest.approx(1.25)
        # A breach tick actuates -> new configuration, fresh window.
        drive(controller, tracking=10.0)
        assert controller.steady_ratio() is None
        controller.add_tracking_seconds(0.1)
        controller.account_io("socketRead0", "recv", 0, 0)
        assert controller.steady_ratio() == pytest.approx(1.1)

    def test_hold_tick_keeps_accumulating_steady_state(self):
        controller = make_controller()
        drive(controller, tracking=0.0)  # hold: no actuation
        assert controller.steady_ratio() == pytest.approx(1.0)

    def test_unlimited_budget_never_sheds(self):
        controller = make_controller(budget=None)
        result = drive(controller, tracking=100.0)
        assert result["action"] == "hold"
        assert controller.sample_every == 1
        assert controller.sheds == 0
        assert controller.gated_methods == ()


class TestMetrics:
    def test_families_exported_with_full_shape(self):
        metrics = MetricsRegistry()
        make_controller(metrics=metrics)
        snap = metrics.snapshot()
        assert snapshot_max(snap, "dista_budget_overhead_ratio") == 1.0
        assert snapshot_max(snap, "dista_budget_steady_overhead_ratio") == 1.0
        for actuator in ("sampling", "methods"):
            labels = {"actuator": actuator}
            assert snapshot_max(snap, "dista_budget_coverage", labels) == 1.0
            # Pre-declared at zero so the series exist before any shed.
            assert snapshot_total(snap, "dista_budget_sheds_total", labels) == 0.0

    def test_shed_updates_gauges_and_counters(self):
        metrics = MetricsRegistry()
        controller = make_controller(metrics=metrics)
        drive(controller, tracking=0.2)
        snap = metrics.snapshot()
        assert snapshot_max(
            snap, "dista_budget_coverage", {"actuator": "sampling"}
        ) == pytest.approx(0.5)
        assert (
            snapshot_total(snap, "dista_budget_sheds_total", {"actuator": "sampling"})
            == 1.0
        )
        assert snapshot_max(snap, "dista_budget_overhead_ratio") > 1.05

    def test_steady_gauge_reads_live_partial_window(self):
        """The steady gauge is a scrape-time collector: the final
        partial window counts without waiting for a tick."""
        metrics = MetricsRegistry()
        controller = make_controller(metrics=metrics)
        controller.add_tracking_seconds(1.0)
        controller.account_io("socketRead0", "recv", 0, 0)
        snap = metrics.snapshot()
        assert snapshot_max(
            snap, "dista_budget_steady_overhead_ratio"
        ) == pytest.approx(2.0)
