"""Deterministic point-queue simulator for a four-phase signalized intersection.

The intersection has four approaches (N, E, S, W) with two lanes each: lane 0
carries through and left traffic, lane 1 carries right turns.  Opposing
approaches move together, giving four signal phases served in fixed order:

    phase 0: N0 + S0   (through + left, north-south)
    phase 1: N1 + S1   (right turns, north-south)
    phase 2: E0 + W0   (through + left, east-west)
    phase 3: E1 + W1   (right turns, east-west)

Vehicles are generated by per-lane Poisson processes, travel a fixed free-flow
time to the stopline, and then either join a vertical (point) queue or, if the
lane has an active green with no queue in front, pass straight through.  A
green flows once its startup lost time is over; a served lane's k-th
departure then falls k saturation headways into the flow.
Time advances in one-second ticks; all per-tick work runs in a fixed lane order
and draws random numbers from a single seeded generator, so a (seed,
configuration) pair reproduces a run bit for bit.

Lanes hold vehicle counts, not vehicle objects (see :class:`SimState`), and
arrivals are drawn in blocks that equal one draw per tick value for value.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (ConfigurationError, ContractViolation, check_finite_fields,
                     check_non_negative, check_whole_seconds)

LANE_IDS = ("N0", "N1", "E0", "E1", "S0", "S1", "W0", "W1")
N_APPROACHES = 4
N_LANES = 8
N_PHASES = 4

# phase index -> lane indices served (opposing approaches share a phase)
PHASE_SERVED = ((0, 4), (1, 5), (2, 6), (3, 7))

ACTION_END = 0
ACTION_CONTINUE = 1
ACTION_EXTEND = 2
N_ACTIONS = 3

# most ticks of arrivals drawn in one generator call
ARRIVAL_BLOCK_TICKS = 256
# a departure due this little past a tick leaves on it: in binary, k headways
# can overshoot the whole second they make (25 x 1.12 s = 28.000000000000004 s)
DEPARTURE_SLACK_S = 1e-9
# the speed of an approaching vehicle: it moves at free flow, a queued one stands
FREE_FLOW_SPEED_MS = 11.11
# the largest Poisson mean numpy draws at: int64 max less ten of its square roots
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10.0 * np.sqrt(np.iinfo(np.int64).max)


def approach_max(lane_values) -> tuple:
    """Each approach's worse lane, in N, E, S, W order: the larger of
    its two lanes' values (``lane_values`` in ``LANE_IDS`` order)."""
    v = lane_values
    return (max(v[0], v[1]), max(v[2], v[3]), max(v[4], v[5]), max(v[6], v[7]))


def phase_max(lane_values) -> tuple:
    """Each phase's worse lane: the larger of its two served lanes' values."""
    return tuple(max(lane_values[i], lane_values[j]) for i, j in PHASE_SERVED)


@dataclass(frozen=True)
class IntersectionLayout:
    """Driver-behaviour timings of the intersection, each read by :func:`step`.

    Travel time and startup loss are whole seconds, 0 allowed: vehicles
    entering on tick k reach the stopline on tick k + travel."""

    travel_time_to_stopline_s: float = 15.0
    saturation_headway_s: float = 2.0
    startup_lost_time_s: float = 2.0

    def __post_init__(self) -> None:
        check_finite_fields("sim", self)
        for name in ("travel_time_to_stopline_s", "startup_lost_time_s"):
            check_whole_seconds(f"sim.{name}", getattr(self, name), 0)
        if self.saturation_headway_s <= 0.0:
            raise ConfigurationError("saturation headway must be positive")

    @property
    def saturation_flow_veh_h(self) -> float:
        return 3600.0 / self.saturation_headway_s


def sum_in_order(values) -> float:
    """``values`` added left to right, the same bits on every Python (from
    3.12 on, builtin ``sum`` compensates floats, which can move the last bit)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class PhasePlan:
    """Signal timing plan: per-phase green defaults and shared intervals.

    The signal runs on the simulator's one-second tick, so ``greens_s``,
    ``yellow_s``, ``g_min_s``, ``g_max_s`` and ``delta_time_s`` must be whole
    seconds, at least 1 s.  Greens installed on a running simulation may be
    fractional (Webster installs fractional greens, see
    :func:`install_programmed_greens`): such a green ends on the first whole
    second at or past its programmed value.
    """

    greens_s: tuple[float, float, float, float] = (20.0, 20.0, 20.0, 20.0)
    yellow_s: float = 5.0
    g_min_s: float = 10.0
    g_max_s: float = 40.0
    delta_time_s: float = 5.0

    def __post_init__(self) -> None:
        if len(self.greens_s) != N_PHASES:
            raise ConfigurationError("plan needs one programmed green per phase")
        for name in ("yellow_s", "g_min_s", "g_max_s", "delta_time_s"):
            check_whole_seconds(f"plan.{name}", getattr(self, name))
        if self.g_min_s > self.g_max_s:
            raise ConfigurationError("g_min must not exceed g_max")
        for g in self.greens_s:
            check_whole_seconds("plan.greens_s", g)
            if not (self.g_min_s <= g <= self.g_max_s):
                raise ConfigurationError(
                    f"programmed green {g} outside [{self.g_min_s}, {self.g_max_s}]"
                )

    @property
    def default_cycle_s(self) -> float:
        return sum_in_order(self.greens_s) + N_PHASES * self.yellow_s

    @property
    def longest_cycle_s(self) -> float:
        """Every green at ``g_max_s`` plus its yellow: no controller can run
        a longer cycle, so a decision point comes within this many ticks."""
        return N_PHASES * (self.g_max_s + self.yellow_s)

    def check_horizon(self, horizon_s) -> None:
        """Reject a horizon in which an episode may complete no cycle."""
        if not horizon_s > self.longest_cycle_s:
            raise ConfigurationError(
                f"horizon {horizon_s}s must exceed the longest cycle, "
                f"{self.longest_cycle_s:g}s, so that every episode completes one")


@dataclass(frozen=True)
class FlowProfile:
    """Piecewise-constant Poisson arrival rates per lane, as one table.

    Row ``k`` runs from ``starts_s[k]`` until the next start, or until
    ``span_s`` for the last row.  It holds the eight lane rates of that
    stretch in veh/h, in ``LANE_IDS`` order, and its regime label (for
    example high / medium / low demand, carried through to per-cycle
    records), ``""`` where none was given.  For clocks past the span the
    profile repeats (lookup wraps modulo the span), so a short profile can
    drive arbitrarily long runs.  :meth:`build` makes and checks a profile.
    Bounds, and so the span, are whole seconds; tick k reads the row in
    force at clock k - 1.  Every rate, built or scaled, must be finite,
    non-negative and no more than numpy can draw a tick's arrivals at.
    """

    starts_s: tuple[float, ...]
    rates_veh_h: tuple[tuple[float, ...], ...]
    regimes: tuple[str, ...]
    span_s: float

    def __post_init__(self) -> None:
        for row in self.rates_veh_h:
            for lane, rate in zip(LANE_IDS, row):
                check_non_negative(f"flow.{lane} arrival rate", rate)
                if rate / 3600.0 > _POISSON_MEAN_MAX:  # the mean a tick's draw uses
                    raise ConfigurationError(f"flow.{lane} arrival rate {rate:g} veh/h is "
                                             f"above numpy's {3600.0 * _POISSON_MEAN_MAX:g}")

    @staticmethod
    def build(rates: dict[str, Sequence[tuple[float, float, float]]],
              regimes: Sequence[tuple[float, float, str]] = ()) -> "FlowProfile":
        """Build a profile from ``{lane: [(start, end, veh_per_hour), ...]}``
        and optional regimes ``[(start, end, label), ...]``.

        Each lane's segments, and the regimes, must tile one common span
        ``[0, span)`` in whole seconds.  At least one lane is required;
        lanes not named carry zero flow.  The rows start at every start of
        a lane or a regime.
        """
        if not rates:
            raise ConfigurationError("flow profile needs at least one lane")
        tilings = {}
        for lane, segments in rates.items():
            if lane not in LANE_IDS:
                raise ConfigurationError(f"unknown lane id {lane!r}")
            tilings[f"flow.{lane}"] = segments
        if regimes:
            tilings["flow.regimes"] = regimes
        span = None
        for name, segments in tilings.items():
            if not segments:
                raise ConfigurationError(f"{name} has no segments")
            cursor = 0.0
            for start, end, _value in segments:
                if start != cursor:
                    raise ConfigurationError(f"{name} must tile the span without gaps")
                if end <= start:
                    raise ConfigurationError(f"{name} has an empty segment")
                check_whole_seconds(f"{name} bound", end)
                cursor = end
            if span is None:
                span = cursor
            elif cursor != span:
                raise ConfigurationError(
                    f"{name} ends at {cursor:g}, not at the span {span:g}")
        starts = sorted({start for segments in tilings.values()
                         for start, _end, _value in segments})

        def column(segments):
            seg_starts = [start for start, _end, _value in segments]
            return [segments[bisect_right(seg_starts, t) - 1][2] for t in starts]

        lanes = [column(rates.get(lane, [(0.0, span, 0.0)])) for lane in LANE_IDS]
        return FlowProfile(tuple(starts), tuple(zip(*lanes)),
                           tuple(column(regimes or [(0.0, span, "")])), span)

    def scaled(self, factors: Sequence[float]) -> "FlowProfile":
        """New profile with each lane's rates multiplied by its factor."""
        if len(factors) != N_LANES:
            raise ConfigurationError("need one scale factor per lane")
        factors = [float(f) for f in factors]
        return replace(self, rates_veh_h=tuple(
            tuple(rate * f for rate, f in zip(row, factors)) for row in self.rates_veh_h))

    def _row(self, t_s: float) -> tuple[int, float]:
        """The row in force at clock ``t_s``, and the clock wrapped into the span."""
        t = t_s % self.span_s
        return bisect_right(self.starts_s, t) - 1, t

    def rates_and_horizon(self, t_s: float) -> tuple[np.ndarray, float]:
        """Per-lane rates in veh/s at time ``t_s`` and how long they stay valid."""
        k, t = self._row(t_s)
        end = self.starts_s[k + 1] if k + 1 < len(self.starts_s) else self.span_s
        return np.array(self.rates_veh_h[k], dtype=np.float64) / 3600.0, end - t

    def regime_at(self, t_s: float) -> str:
        return self.regimes[self._row(t_s)[0]]


class SimState:
    """Mutable state of one simulation run.

    A new state starts at clock 0, phase 0, with empty lanes.
    ``programmed_green_s`` holds the live per-phase greens for the current
    cycle; it resets to ``default_green_s`` every time the cycle wraps back
    to phase 0, so a truncation or extension applies to one cycle only.  ``phase_elapsed_s``
    counts completed green seconds of the current phase and freezes during
    yellow.  ``decision_queues`` holds :meth:`approach_queues` as of the
    last action (zeros before the first), the reference for queue changes
    between decision points.

    The cycle in progress began on tick ``cycle_start_tick``; ``cycle_lane_max``
    holds each lane's largest end-of-tick queue so far and ``cycle_green_s``
    each phase's green seconds, written when the green ends.  Each wrap
    appends ``(start_tick, length_s, lane_max, green_s)`` of the cycle it
    closes to ``completed_cycles``.

    Per-lane lists follow ``LANE_IDS``.  ``transit`` holds FIFO runs
    ``(stopline_tick, per-lane counts)``, one per tick with arrivals;
    ``queues`` holds each lane's FIFO runs ``[join_tick, count]``; ``queued``
    and ``join_ticks`` total them; ``departed`` counts this green's departures.

    Each :func:`step` leaves what its tick did on the state: ``arrivals``,
    the tick's per-lane arrival counts, and ``phase_changed``, True on the
    tick a new phase's green began.  They describe the last tick only;
    ``arrivals`` is read-only, as it is the same list that ``transit``
    holds.
    """

    def __init__(self, layout: IntersectionLayout, plan: PhasePlan, flows: FlowProfile,
                 seed: int) -> None:
        self.layout = layout
        self.plan = plan
        self.flows = flows
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.clock = 0
        self.current_phase = 0
        self.phase_elapsed_s = 0
        self.in_yellow = False
        self.yellow_elapsed_s = 0
        self.cycle_start_tick = 1
        self.cycle_lane_max = [0] * N_LANES
        self.cycle_green_s = [0] * N_PHASES
        self.completed_cycles: list[tuple[int, int, tuple, tuple]] = []
        self.default_green_s = list(plan.greens_s)
        self.programmed_green_s = list(plan.greens_s)
        self.decision_queues = (0, 0, 0, 0)
        self.transit: deque = deque()
        self.queues = [deque() for _ in range(N_LANES)]
        self.queued = [0] * N_LANES
        self.join_ticks = [0] * N_LANES
        self.departed = [0] * N_LANES
        self._arrival_rows = iter(())
        self.arrivals = [0] * N_LANES
        self.phase_changed = False

    # -- observation helpers -------------------------------------------------

    @property
    def cycle_elapsed_s(self) -> int:
        return self.clock - self.cycle_start_tick + 1

    def approach_queues(self) -> tuple:
        """Per-approach queue: max over the approach's two lanes."""
        return approach_max(self.queued)

    def lane_wait_s(self, lane: int) -> int:
        """Summed waiting time of vehicles currently queued in a lane."""
        return self.clock * self.queued[lane] - self.join_ticks[lane]

    def approaching(self) -> list[int]:
        """Per-lane count of vehicles in transit to the stopline."""
        return [sum(counts[lane] for _tick, counts in self.transit)
                for lane in range(N_LANES)]


def _draw_arrivals(sim: SimState) -> list:
    """Draw the next block of per-tick arrival counts and return its first row.

    Each block reads its rates from the flow table and covers at most the
    ticks left in that row, so its rows equal, value for value, one draw
    per tick.
    """
    rates, valid = sim.flows.rates_and_horizon(sim.clock - 1)
    ticks = min(int(valid), ARRIVAL_BLOCK_TICKS)
    sim._arrival_rows = iter(sim.rng.poisson(rates, size=(ticks, N_LANES)).tolist())
    return next(sim._arrival_rows)


def step(sim: SimState) -> SimState:
    """Advance the simulation by one second and return ``sim``.

    Substeps, in fixed order: signal phase machine, Poisson arrivals (the
    next row of the arrival block, all eight lanes), stopline transfer of
    in-transit vehicles (queue join or pass-through), saturation-rate
    discharge of the served queues, and the cycle and timer bookkeeping.
    The tick's ``arrivals`` and ``phase_changed`` are left on ``sim``.
    """
    clock = sim.clock = sim.clock + 1
    phase = sim.current_phase
    in_yellow = sim.in_yellow
    elapsed = sim.phase_elapsed_s

    # signal phase machine: green ends once the elapsed green reaches the live
    # programmed green, yellow runs for the full yellow interval, and the
    # cycle wrap restores the per-cycle green defaults
    phase_changed = cycle_completed = False
    if in_yellow:
        if sim.yellow_elapsed_s >= sim.plan.yellow_s:
            in_yellow = sim.in_yellow = False
            sim.yellow_elapsed_s = 0
            phase = sim.current_phase = (phase + 1) % N_PHASES
            elapsed = 0
            phase_changed = True
            sim.departed = [0] * N_LANES
            if phase == 0:
                sim.completed_cycles.append(
                    (sim.cycle_start_tick, clock - sim.cycle_start_tick,
                     tuple(sim.cycle_lane_max), tuple(sim.cycle_green_s)))
                sim.cycle_start_tick = clock
                sim.programmed_green_s = list(sim.default_green_s)
                cycle_completed = True
    elif elapsed >= sim.programmed_green_s[phase]:
        in_yellow = sim.in_yellow = True
        sim.cycle_green_s[phase] = elapsed
        sim.yellow_elapsed_s = 0
    sim.phase_changed = phase_changed

    layout = sim.layout
    queued = sim.queued
    transit = sim.transit

    arrivals = sim.arrivals = next(sim._arrival_rows, None) or _draw_arrivals(sim)
    if any(arrivals):
        transit.append((clock + layout.travel_time_to_stopline_s, arrivals))

    # stopline transfer: vehicles whose free-flow travel is complete either
    # pass straight through (served green, no queue, startup done) or join
    served = PHASE_SERVED[phase]
    green_flowing = not in_yellow and elapsed >= layout.startup_lost_time_s
    joined = None
    if transit and transit[0][0] <= clock:
        counts = transit.popleft()[1]
        joined = []
        for i in range(N_LANES):
            n = counts[i]
            if n and not (green_flowing and i in served and not queued[i]):
                sim.queues[i].append([clock, n])
                queued[i] += n
                sim.join_ticks[i] += clock * n
                joined.append(i)

    # queue discharge: a served lane's k-th departure of the green falls k
    # headways into the green's flowing ticks, this one included
    if green_flowing:
        flowing = elapsed + 1 - layout.startup_lost_time_s + DEPARTURE_SLACK_S
        for i in served:
            while queued[i] and (sim.departed[i] + 1) * layout.saturation_headway_s <= flowing:
                head = sim.queues[i][0]
                head[1] -= 1
                if not head[1]:
                    sim.queues[i].popleft()
                sim.departed[i] += 1
                queued[i] -= 1
                sim.join_ticks[i] -= head[0]

    # only a join raises a queue, so only joined lanes can set a new maximum
    if cycle_completed:
        sim.cycle_lane_max = queued[:]
    elif joined:
        lane_max = sim.cycle_lane_max
        for i in joined:
            if queued[i] > lane_max[i]:
                lane_max[i] = queued[i]
    if in_yellow:
        sim.yellow_elapsed_s += 1
    else:
        sim.phase_elapsed_s = elapsed + 1

    return sim


def at_decision_point(sim: SimState) -> bool:
    """True when the controller may act: green phase, minimum green served,
    and the elapsed green sits on the decision interval grid."""
    if sim.in_yellow:
        return False
    if sim.phase_elapsed_s < sim.plan.g_min_s:
        return False
    return (sim.phase_elapsed_s - sim.plan.g_min_s) % sim.plan.delta_time_s == 0


def apply_action(sim: SimState, action: int) -> None:
    """Apply a control action at a decision point.

    Action 0 ends the current green now (yellow begins next tick), action 1
    leaves the programmed green unchanged, action 2 extends it by the decision
    interval, clamped to g_max.  The current approach queues become
    ``sim.decision_queues``.  Calling outside a decision point raises
    :class:`ContractViolation`.
    """
    if action not in (ACTION_END, ACTION_CONTINUE, ACTION_EXTEND):
        raise ValueError(f"unknown action {action!r}")
    if not at_decision_point(sim):
        raise ContractViolation(
            f"action applied outside a decision point (phase_elapsed="
            f"{sim.phase_elapsed_s}, in_yellow={sim.in_yellow})"
        )
    sim.decision_queues = sim.approach_queues()
    phase = sim.current_phase
    if action == ACTION_END:
        sim.programmed_green_s[phase] = float(sim.phase_elapsed_s)
    elif action == ACTION_EXTEND:
        sim.programmed_green_s[phase] = min(
            sim.programmed_green_s[phase] + sim.plan.delta_time_s, sim.plan.g_max_s)


def install_programmed_greens(sim: SimState, greens: Sequence[float]) -> None:
    """Install a new green plan (for example from a Webster recomputation).

    Greens are clamped to ``[g_min, g_max]``, may be fractional (a green ends
    on the first whole second at or past it), and become both the live plan
    and the per-cycle default.  Only legal early in a phase (before the
    controller could have acted), so an installation can never cut a green
    below the minimum retroactively.
    """
    if len(greens) != N_PHASES:
        raise ConfigurationError("need one green per phase")
    if sim.in_yellow or sim.phase_elapsed_s > sim.plan.g_min_s:
        raise ContractViolation("greens can only be installed at the start of a phase")
    clamped = tuple(
        min(max(float(g), sim.plan.g_min_s), sim.plan.g_max_s) for g in greens
    )
    sim.default_green_s = list(clamped)
    sim.programmed_green_s = list(clamped)
