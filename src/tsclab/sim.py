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
queued lane discharges at the saturation flow rate while green, modelled by a
fractional credit accumulator, after a fixed startup lost time at the beginning
of each green.  Time advances in one-second ticks; all per-tick work runs in a
fixed lane order and draws random numbers from a single seeded generator, so a
(seed, configuration) pair reproduces a run bit for bit.

Lanes hold vehicle counts, not vehicle objects (see :class:`SimState`), and
arrivals are drawn in blocks that equal one draw per tick value for value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation

LANE_IDS = ("N0", "N1", "E0", "E1", "S0", "S1", "W0", "W1")
APPROACHES = ("N", "E", "S", "W")
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


def yellow_time(t_f: float, w: float, length: float, u0: float, a: float) -> float:
    """Minimum yellow interval that closes the dilemma zone.

    ``t_f`` is driver reaction time (s), ``w`` the intersection width (m),
    ``length`` the vehicle length (m), ``u0`` the approach speed (m/s) and
    ``a`` the comfortable deceleration (m/s^2).  The result is the reaction
    time plus crossing time plus braking time; callers round up to whole
    seconds before programming a signal.
    """
    values = (t_f, w, length, u0, a)
    if any(not math.isfinite(v) for v in values):
        raise ValueError("yellow_time inputs must be finite")
    if u0 <= 0.0:
        raise ValueError("approach speed must be positive")
    if a <= 0.0:
        raise ValueError("deceleration must be positive")
    if t_f < 0.0 or w < 0.0 or length < 0.0:
        raise ValueError("reaction time, width and vehicle length must be non-negative")
    return t_f + (w + length) / u0 + u0 / (2.0 * a)


@dataclass(frozen=True)
class IntersectionLayout:
    """Geometry and driver-behaviour constants of the intersection."""

    lane_storage_capacity: int = 25
    travel_time_to_stopline_s: float = 15.0
    saturation_headway_s: float = 2.0
    startup_lost_time_s: float = 2.0
    free_flow_speed_ms: float = 11.11

    def __post_init__(self) -> None:
        if self.lane_storage_capacity < 1:
            raise ConfigurationError("lane storage capacity must be at least 1")
        if self.travel_time_to_stopline_s < 0.0:
            raise ConfigurationError("travel time to stopline must be non-negative")
        if self.saturation_headway_s <= 0.0:
            raise ConfigurationError("saturation headway must be positive")
        if self.startup_lost_time_s < 0.0:
            raise ConfigurationError("startup lost time must be non-negative")
        if self.free_flow_speed_ms <= 0.0:
            raise ConfigurationError("free-flow speed must be positive")

    @property
    def saturation_flow_veh_h(self) -> float:
        return 3600.0 / self.saturation_headway_s


@dataclass(frozen=True)
class PhasePlan:
    """Signal timing plan: per-phase green defaults and shared intervals.

    The signal runs on the simulator's one-second tick, so ``yellow_s``,
    ``g_min_s``, ``g_max_s`` and ``delta_time_s`` must be whole seconds.
    Programmed greens may be fractional (Webster installs fractional greens):
    a green ends on the first whole second at or past its programmed value.
    """

    programmed_green_s: tuple[float, float, float, float] = (20.0, 20.0, 20.0, 20.0)
    yellow_s: float = 5.0
    g_min_s: float = 10.0
    g_max_s: float = 40.0
    delta_time_s: float = 5.0

    def __post_init__(self) -> None:
        if len(self.programmed_green_s) != N_PHASES:
            raise ConfigurationError("plan needs one programmed green per phase")
        if self.g_min_s <= 0.0 or self.g_max_s <= 0.0:
            raise ConfigurationError("green bounds must be positive")
        if self.g_min_s > self.g_max_s:
            raise ConfigurationError("g_min must not exceed g_max")
        if self.yellow_s <= 0.0:
            raise ConfigurationError("yellow interval must be positive")
        if self.delta_time_s <= 0.0:
            raise ConfigurationError("decision interval must be positive")
        for name in ("yellow_s", "g_min_s", "g_max_s", "delta_time_s"):
            if not float(getattr(self, name)).is_integer():
                raise ConfigurationError(
                    f"{name} must be a whole number of seconds, got {getattr(self, name)}")
        for g in self.programmed_green_s:
            if not (self.g_min_s <= g <= self.g_max_s):
                raise ConfigurationError(
                    f"programmed green {g} outside [{self.g_min_s}, {self.g_max_s}]"
                )

    @property
    def default_cycle_s(self) -> float:
        return sum(self.programmed_green_s) + N_PHASES * self.yellow_s


@dataclass(frozen=True)
class FlowSegment:
    start_s: float
    end_s: float
    rate_veh_h: float


@dataclass(frozen=True)
class FlowProfile:
    """Piecewise-constant Poisson arrival rates per lane.

    Segments for each lane must tile ``[0, span)`` without gaps or overlap;
    lanes absent from ``lane_segments`` carry zero flow.  For clocks past the
    span the profile repeats (lookup wraps modulo the span), so a short
    profile can drive arbitrarily long runs.  ``regimes`` optionally labels
    sub-intervals of the span (for example high / medium / low demand) and is
    carried through to per-cycle records.
    """

    lane_segments: dict[str, tuple[FlowSegment, ...]]
    regimes: tuple[tuple[float, float, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.lane_segments:
            raise ConfigurationError("flow profile needs at least one lane")
        span = None
        for lane_id, segments in self.lane_segments.items():
            if lane_id not in LANE_IDS:
                raise ConfigurationError(f"unknown lane id {lane_id!r}")
            if not segments:
                raise ConfigurationError(f"lane {lane_id} has no flow segments")
            cursor = 0.0
            for seg in segments:
                if seg.start_s != cursor:
                    raise ConfigurationError(
                        f"lane {lane_id} segments must tile the span without gaps"
                    )
                if seg.end_s <= seg.start_s:
                    raise ConfigurationError(f"lane {lane_id} has an empty segment")
                if not math.isfinite(seg.rate_veh_h) or seg.rate_veh_h < 0.0:
                    raise ConfigurationError("arrival rates must be finite and non-negative")
                cursor = seg.end_s
            if span is None:
                span = cursor
            elif cursor != span:
                raise ConfigurationError("all lanes must cover the same span")
        if self.regimes:
            cursor = 0.0
            for start, end, _label in self.regimes:
                if start != cursor or end <= start:
                    raise ConfigurationError("regimes must tile the span without gaps")
                cursor = end
            if cursor != span:
                raise ConfigurationError("regimes must cover exactly the flow span")

    @property
    def span_s(self) -> float:
        segments = next(iter(self.lane_segments.values()))
        return segments[-1].end_s

    @staticmethod
    def build(rates: dict[str, Sequence[tuple[float, float, float]]],
              regimes: Sequence[tuple[float, float, str]] = ()) -> "FlowProfile":
        """Build a profile from ``{lane: [(start, end, veh_per_hour), ...]}``.

        Lanes not mentioned get a single zero-rate segment across the span.
        """
        lane_segments = {
            lane: tuple(FlowSegment(s, e, r) for s, e, r in segs)
            for lane, segs in rates.items()
        }
        if lane_segments:
            span = max(segs[-1].end_s for segs in lane_segments.values())
        elif regimes:
            span = max(end for _s, end, _l in regimes)
        else:
            span = 3600.0
        for lane in LANE_IDS:
            if lane not in lane_segments:
                lane_segments[lane] = (FlowSegment(0.0, span, 0.0),)
        return FlowProfile(lane_segments=lane_segments, regimes=tuple(regimes))

    @staticmethod
    def uniform(rates_veh_h: Sequence[float], span_s: float = 3600.0) -> "FlowProfile":
        """Constant per-lane rates, ordered as ``LANE_IDS``."""
        if len(rates_veh_h) != N_LANES:
            raise ConfigurationError("uniform profile needs one rate per lane")
        return FlowProfile.build(
            {lane: [(0.0, span_s, rate)] for lane, rate in zip(LANE_IDS, rates_veh_h)}
        )

    def scaled(self, factors: Sequence[float]) -> "FlowProfile":
        """New profile with each lane's rates multiplied by its factor."""
        if len(factors) != N_LANES:
            raise ConfigurationError("need one scale factor per lane")
        lane_segments = {
            LANE_IDS[i]: tuple(
                FlowSegment(s.start_s, s.end_s, s.rate_veh_h * float(factors[i]))
                for s in self.lane_segments[LANE_IDS[i]]
            )
            for i in range(N_LANES)
        }
        return FlowProfile(lane_segments=lane_segments, regimes=self.regimes)

    def rates_and_horizon(self, t_s: float) -> tuple[np.ndarray, float]:
        """Per-lane rates in veh/s at time ``t_s`` and how long they stay valid."""
        t = t_s % self.span_s
        rates = np.empty(N_LANES, dtype=np.float64)
        valid = self.span_s - t
        for i, lane_id in enumerate(LANE_IDS):
            for seg in self.lane_segments[lane_id]:
                if seg.start_s <= t < seg.end_s:
                    rates[i] = seg.rate_veh_h / 3600.0
                    valid = min(valid, seg.end_s - t)
                    break
        return rates, valid

    def regime_at(self, t_s: float) -> str:
        if not self.regimes:
            return ""
        t = t_s % self.span_s
        for start, end, label in self.regimes:
            if start <= t < end:
                return label
        return self.regimes[-1][2]


@dataclass(slots=True)
class TickReport:
    """What happened during one one-second tick."""

    tick: int
    phase: int
    in_yellow: bool
    phase_changed: bool
    cycle_completed: bool
    arrivals: tuple
    discharges: tuple
    queue_lengths: tuple

    @property
    def total_queue(self) -> int:
        return sum(self.queue_lengths)


class SimState:
    """Mutable state of one simulation run.

    Create instances through :func:`new_simulation`.  ``programmed_green_s``
    holds the live per-phase greens for the current cycle; it resets to
    ``default_green_s`` every time the cycle wraps back to phase 0, so a
    truncation or extension applies to one cycle only.  ``phase_elapsed_s``
    counts completed green seconds of the current phase and freezes during
    yellow.  ``decision_queues`` holds :meth:`approach_queues` as of the
    last action (zeros before the first), the reference for queue changes
    between decision points.

    Per-lane lists follow ``LANE_IDS``.  ``transit`` holds FIFO runs
    ``(stopline_tick, per-lane counts)``, one per tick with arrivals;
    ``queues`` holds each lane's FIFO runs ``[join_tick, count]``;
    ``in_transit``, ``queued`` and ``join_ticks`` total them.  A lane is
    first in, first out end to end, so vehicle ids are implicit; they are
    kept in ``vehicle_ids``, queued first, only when events are recorded.
    """

    def __init__(self, layout: IntersectionLayout, plan: PhasePlan, flows: FlowProfile,
                 seed: int, record_events: bool = False) -> None:
        self.layout = layout
        self.plan = plan
        self.flows = flows
        self.seed = seed
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.clock = 0
        self.current_phase = 0
        self.phase_elapsed_s = 0
        self.in_yellow = False
        self.yellow_elapsed_s = 0
        self.cycle_elapsed_s = 0
        self.cycles_completed = 0
        self.default_green_s = list(plan.programmed_green_s)
        self.programmed_green_s = list(plan.programmed_green_s)
        self.decision_queues = (0, 0, 0, 0)
        self.transit: deque = deque()
        self.queues = [deque() for _ in range(N_LANES)]
        self.in_transit = [0] * N_LANES
        self.queued = [0] * N_LANES
        self.join_ticks = [0] * N_LANES
        self.credit = [0.0] * N_LANES
        self.events: list[tuple[int, str, str, int]] = []
        self.vehicle_ids = [deque() for _ in range(N_LANES)] if record_events else None
        self._next_vehicle_id = 0
        self._rates_veh_s = np.zeros(N_LANES, dtype=np.float64)
        self._rates_valid_until = 0
        self._arrival_rows = iter(())

    # -- observation helpers -------------------------------------------------

    def queue_lengths(self) -> tuple:
        return tuple(self.queued)

    def approach_queues(self) -> tuple:
        """Per-approach queue: max over the approach's two lanes."""
        q = self.queued
        return (max(q[0], q[1]), max(q[2], q[3]), max(q[4], q[5]), max(q[6], q[7]))

    def total_queue(self) -> int:
        return sum(self.queued)

    def lane_wait_s(self, lane: int) -> int:
        """Summed waiting time of vehicles currently queued in a lane."""
        return self.clock * self.queued[lane] - self.join_ticks[lane]

    def lane_observables(self, lane: int) -> tuple[int, int, int, float]:
        """(approaching count, queue length, total wait s, summed speeds m/s)."""
        approaching = self.in_transit[lane]
        return (
            approaching,
            self.queued[lane],
            self.lane_wait_s(lane),
            approaching * self.layout.free_flow_speed_ms,
        )

    def lane_served(self, lane: int) -> bool:
        return lane in PHASE_SERVED[self.current_phase]

    def green_active(self) -> bool:
        return not self.in_yellow

    def regime(self) -> str:
        return self.flows.regime_at(max(self.clock - 1, 0))


def new_simulation(layout: IntersectionLayout, plan: PhasePlan, flows: FlowProfile,
                   seed: int, record_events: bool = False) -> SimState:
    """Create a fresh simulation at clock 0, phase 0, empty lanes."""
    return SimState(layout, plan, flows, seed, record_events)


def _advance_signal(sim: SimState) -> tuple[bool, bool]:
    """Run the phase machine for the tick that is about to execute.

    Returns (phase_changed, cycle_completed).  Green ends once the elapsed
    green reaches the live programmed green; yellow runs for the full yellow
    interval; the cycle wrap restores the per-cycle green defaults.
    """
    phase_changed = False
    cycle_completed = False
    if sim.in_yellow:
        if sim.yellow_elapsed_s >= sim.plan.yellow_s:
            sim.in_yellow = False
            sim.yellow_elapsed_s = 0
            sim.current_phase = (sim.current_phase + 1) % N_PHASES
            sim.phase_elapsed_s = 0
            phase_changed = True
            sim.credit = [0.0] * N_LANES
            if sim.current_phase == 0:
                sim.cycles_completed += 1
                sim.cycle_elapsed_s = 0
                sim.programmed_green_s = list(sim.default_green_s)
                cycle_completed = True
    else:
        if sim.phase_elapsed_s >= sim.programmed_green_s[sim.current_phase]:
            sim.in_yellow = True
            sim.yellow_elapsed_s = 0
            sim.credit = [0.0] * N_LANES
    return phase_changed, cycle_completed


def _draw_arrivals(sim: SimState) -> list:
    """Draw the next block of per-tick arrival counts and return its first row.

    Rates are piecewise constant and cached until their segment ends; a block
    covers at most the ticks left in that segment, so its rows equal, value
    for value, one draw per tick.
    """
    if sim.clock > sim._rates_valid_until:
        rates, valid = sim.flows.rates_and_horizon(sim.clock - 1)
        sim._rates_veh_s = rates
        sim._rates_valid_until = sim.clock + int(valid) - 1
    ticks = min(max(sim._rates_valid_until - sim.clock + 1, 1), ARRIVAL_BLOCK_TICKS)
    sim._arrival_rows = iter(sim.rng.poisson(sim._rates_veh_s, size=(ticks, N_LANES)).tolist())
    return next(sim._arrival_rows)


def step(sim: SimState) -> TickReport:
    """Advance the simulation by one second.

    Substeps, in fixed order: signal phase machine, Poisson arrivals (the
    next row of the arrival block, all eight lanes), stopline transfer of
    in-transit vehicles (queue join or pass-through), saturation-rate
    discharge of the served queues, and timer bookkeeping.
    """
    sim.clock += 1
    clock = sim.clock
    phase_changed, cycle_completed = _advance_signal(sim)
    ids = sim.vehicle_ids
    log = sim.events.append
    in_transit = sim.in_transit
    queued = sim.queued

    arrivals = next(sim._arrival_rows, None) or _draw_arrivals(sim)
    if any(arrivals):
        sim.transit.append((math.ceil(clock + sim.layout.travel_time_to_stopline_s),
                            arrivals))
        for i in range(N_LANES):
            in_transit[i] += arrivals[i]
            if ids is not None:
                for vid in range(sim._next_vehicle_id, sim._next_vehicle_id + arrivals[i]):
                    ids[i].append(vid)
                    log((clock, LANE_IDS[i], "enter", vid))
                sim._next_vehicle_id += arrivals[i]

    # stopline transfer: vehicles whose free-flow travel is complete either
    # pass straight through (served green, no queue, startup done) or join
    served = PHASE_SERVED[sim.current_phase]
    green_flowing = (not sim.in_yellow
                     and sim.phase_elapsed_s >= sim.layout.startup_lost_time_s)
    discharges = [0] * N_LANES
    while sim.transit and sim.transit[0][0] <= clock:
        counts = sim.transit.popleft()[1]
        for i in range(N_LANES):
            n = counts[i]
            if not n:
                continue
            in_transit[i] -= n
            passing = green_flowing and i in served and not queued[i]
            if ids is not None:
                for k in range(queued[i], queued[i] + n):
                    log((clock, LANE_IDS[i], "pass" if passing else "join",
                         ids[i].popleft() if passing else ids[i][k]))
            if passing:
                discharges[i] += n
            else:
                sim.queues[i].append([clock, n])
                queued[i] += n
                sim.join_ticks[i] += clock * n

    # queue discharge: each served lane earns 1/headway of a vehicle per green
    # second once the startup lost time has elapsed; credit resets with the phase
    if green_flowing:
        credit = sim.credit
        for i in served:
            credit[i] += 1.0 / sim.layout.saturation_headway_s
            while credit[i] >= 1.0 and queued[i]:
                head = sim.queues[i][0]
                head[1] -= 1
                if not head[1]:
                    sim.queues[i].popleft()
                credit[i] -= 1.0
                queued[i] -= 1
                sim.join_ticks[i] -= head[0]
                discharges[i] += 1
                if ids is not None:
                    log((clock, LANE_IDS[i], "discharge", ids[i].popleft()))

    if sim.in_yellow:
        sim.yellow_elapsed_s += 1
    else:
        sim.phase_elapsed_s += 1
    sim.cycle_elapsed_s += 1

    return TickReport(
        tick=clock,
        phase=sim.current_phase,
        in_yellow=sim.in_yellow,
        phase_changed=phase_changed,
        cycle_completed=cycle_completed,
        arrivals=tuple(arrivals),
        discharges=tuple(discharges),
        queue_lengths=tuple(queued),
    )


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


def install_programmed_greens(sim: SimState, greens: Sequence[float]) -> tuple:
    """Install a new green plan (for example from a Webster recomputation).

    Greens are clamped to ``[g_min, g_max]`` and become both the live plan and
    the per-cycle default.  Only legal early in a phase (before the controller
    could have acted), so an installation can never cut a green below the
    minimum retroactively.
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
    return clamped
