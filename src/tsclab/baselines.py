"""Classical signal-timing controllers: fixed-time and Dynamic Webster.

Both speak the controller protocol used by the episode runner:
``decide(sim) -> action`` at decision points and, only for a controller that
watches every simulated second (here Dynamic Webster), ``on_tick(sim)`` after
each tick, which reads the tick from the simulator's ``arrivals`` and
``phase_changed``.  A controller object plays one episode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_finite_fields, check_whole_seconds
from .sim import (ACTION_CONTINUE, IntersectionLayout, N_LANES, N_PHASES, PhasePlan,
                  SimState, install_programmed_greens, phase_max, sum_in_order)


def webster_timings(lost_time_s: float, y_ratios: tuple,
                    plan: PhasePlan) -> tuple[float, tuple, bool]:
    """Cycle length (1.5L + 5)/(1 - sum Y) with proportional green split,
    from the per-cycle lost time L and the per-phase flow ratios Y
    (critical-lane flow over saturation flow); returns ``(cycle_s,
    greens_s, saturated)``.

    The cycle is capped above at the plan's ``longest_cycle_s``; below it
    the formula's value is returned as-is, even when shorter than the
    minimal plan (the split greens are clamped to [g_min, g_max]
    individually, so the installed plan is always feasible).
    A demand at or beyond saturation (sum Y >= 1) falls back to the maximum
    plan with the saturated flag set.
    """
    g_min_s, g_max_s = plan.g_min_s, plan.g_max_s
    y_sum = float(sum_in_order(y_ratios))
    cycle_cap = plan.longest_cycle_s
    if y_sum >= 1.0:
        return cycle_cap, (g_max_s,) * N_PHASES, True
    c_o = (1.5 * lost_time_s + 5.0) / (1.0 - y_sum)
    c_o = min(c_o, cycle_cap)
    effective = c_o - lost_time_s
    if y_sum == 0.0:
        greens = (g_min_s,) * N_PHASES
    else:
        greens = tuple(
            min(max((y / y_sum) * effective, g_min_s), g_max_s) for y in y_ratios
        )
    return c_o, greens, False


def default_lost_time_s(layout: IntersectionLayout, plan: PhasePlan) -> float:
    """Per-cycle lost time: per phase, the startup lost time plus all but
    2 s of the yellow (the tail of yellow still discharges no one here, but
    drivers use roughly 2 s of it in the classical accounting)."""
    per_phase = layout.startup_lost_time_s + max(plan.yellow_s - 2.0, 0.0)
    return N_PHASES * per_phase


class FixedTimeController:
    """Runs the programmed plan untouched: always answers 'continue'."""

    def decide(self, sim: SimState) -> int:
        return ACTION_CONTINUE


@dataclass(frozen=True)
class WebsterSettings:
    """Dynamic Webster's timing: how often it recomputes, over how many
    seconds of arrivals, and the per-cycle lost time (None derives it from
    the layout and plan, see :func:`default_lost_time_s`)."""

    recompute_interval_s: float = 145.0
    flow_window_s: float = 900.0
    lost_time_s: float | None = field(default=None, metadata={"type": float})

    def __post_init__(self) -> None:
        check_finite_fields("webster", self)
        # the controller recomputes on the 1 s tick, at most once per tick
        check_whole_seconds("webster.recompute_interval_s", self.recompute_interval_s)
        check_whole_seconds("webster.flow_window_s", self.flow_window_s)
        if self.lost_time_s is not None and not self.lost_time_s > 0.0:
            raise ConfigurationError("lost time must be positive")


# the columns of one ``DynamicWebsterController.recompute_log`` row
WEBSTER_LOG_HEADER = ("clock_s", "y1", "y2", "y3", "y4", "cycle_s",
                      "g1", "g2", "g3", "g4", "saturated")


class DynamicWebsterController(FixedTimeController):
    """Webster timings recomputed on a fixed interval from recent flows.

    On every clock that is a multiple of ``recompute_interval_s`` it turns
    the arrival rates of the last ``flow_window_s`` ticks into per-phase flow
    ratios (max over the phase's lanes, against the lane saturation flow),
    solves the cycle formula, and installs the resulting greens at the next
    phase boundary.  The window keeps ``(sim.clock, arrival row)`` only for
    ticks with arrivals; rows older than ``flow_window_s`` ticks leave it at
    a recompute, and the rates divide by the ticks the window covers,
    min(clock, ``flow_window_s``).  A tick is filed before that tick can
    recompute, so the window never covers zero ticks when it is read.  The
    window and the log belong to one episode, played from clock 0: build a
    new controller per episode.
    """

    def __init__(self, layout: IntersectionLayout, plan: PhasePlan,
                 settings: WebsterSettings = WebsterSettings()) -> None:
        self.layout = layout
        self.plan = plan
        self.settings = settings
        self.lost_time_s = (default_lost_time_s(layout, plan)
                            if settings.lost_time_s is None else settings.lost_time_s)
        # a layout with no startup loss and a plan whose yellow is 2 s or
        # shorter derive no lost time
        if self.lost_time_s <= 0.0:
            raise ConfigurationError("lost time must be positive")
        self.recompute_log: list[tuple] = []
        self._window: deque = deque()
        self._pending: tuple | None = None

    def _window_rates_veh_h(self, clock: int) -> np.ndarray:
        counts = [sum(lane) for lane in zip(*(row for _clock, row in self._window))]
        return (np.array(counts or [0] * N_LANES, dtype=np.int64)
                * (3600.0 / min(clock, self.settings.flow_window_s)))

    def _recompute(self, clock: int) -> None:
        window, oldest = self._window, clock - self.settings.flow_window_s
        while window and window[0][0] <= oldest:
            window.popleft()
        rates = self._window_rates_veh_h(clock)
        y = phase_max(rates / self.layout.saturation_flow_veh_h)
        cycle_s, self._pending, saturated = webster_timings(self.lost_time_s, y, self.plan)
        self.recompute_log.append((clock, *y, cycle_s, *self._pending, int(saturated)))

    def on_tick(self, sim: SimState) -> None:
        if any(sim.arrivals):
            self._window.append((sim.clock, sim.arrivals))
        if sim.clock % self.settings.recompute_interval_s == 0:
            self._recompute(sim.clock)
        if self._pending is not None and sim.phase_changed:
            install_programmed_greens(sim, self._pending)
            self._pending = None
