"""Exact expected queues of a signal under fixed control, in numpy alone.

Under fixed control each lane of the simulator is the discrete-time
fixed-cycle traffic-light queue (Darroch, *On the traffic-light queue*,
Annals of Mathematical Statistics, 1964; van Leeuwaarden, *Delay analysis
for the fixed-cycle traffic-light queue*, Transportation Science, 2006).
Arrivals are independent Poisson draws and the signal ignores them, so the
lanes are independent, and each lane's joint distribution of (queue, running
cycle maximum) can be pushed forward one tick at a time.  The signal
schedule is read from a vehicle-free simulation; the lane rules are stated
here, from the simulator's description:

- vehicles drawn on tick s reach the stopline on tick s + travel;
- on a flowing green tick of a served lane the k-th departure of the green
  falls k headways into its flowing seconds, so a tick whose flowing count
  is f lets floor(f / h) - floor((f - 1) / h) vehicles go;
- arrivals join the queue, except on a served lane's flowing tick with an
  empty queue, where they pass straight through; so an empty lane stays
  empty for the rest of a flowing green;
- a cycle's lane maximum covers the end-of-tick queues from its first tick,
  the previous cycle's wrap tick, to the tick before its own wrap.
"""

from __future__ import annotations

import math

import numpy as np

from tsclab.sim import LANE_IDS, N_LANES, PHASE_SERVED, FlowProfile, SimState, step

# a headway multiple that lands this close above a whole second counts as
# reaching it, so that 25 x 1.12 s reaches 28 s
_HEADWAY_SLACK = 1e-9


def signal_schedule(layout, plan, horizon_s: int) -> list[tuple]:
    """Per tick 1..``horizon_s``: the lanes flowing on that tick, how many
    vehicles each may let go, and whether the tick wraps the cycle.  Read
    from a fixed-control run of a simulation with no vehicles."""
    sim = SimState(layout, plan, FlowProfile.build({"N0": [(0.0, 1.0, 0.0)]}), 0)
    h, startup = layout.saturation_headway_s, layout.startup_lost_time_s
    schedule = []
    for _ in range(horizon_s):
        cycles = len(sim.completed_cycles)
        step(sim)
        flowing_s = sim.phase_elapsed_s - startup
        if sim.in_yellow or flowing_s < 1:
            flowing, capacity = (), 0
        else:
            flowing = PHASE_SERVED[sim.current_phase]
            capacity = (math.floor(flowing_s / h + _HEADWAY_SLACK)
                        - math.floor((flowing_s - 1) / h + _HEADWAY_SLACK))
        schedule.append((flowing, capacity, len(sim.completed_cycles) > cycles))
    return schedule


def _transition(rate_veh_s: float, flowing: bool, capacity: int, size: int) -> np.ndarray:
    """One tick's queue transition matrix [q, q'] of a lane whose stopline
    sees Poisson(``rate_veh_s``) vehicles; the mass of queues past
    ``size - 1`` is dropped."""
    matrix = np.zeros((size, size))
    queue = np.arange(size)
    p = math.exp(-rate_veh_s)
    for n in range(size):
        target = queue + n
        if flowing:
            target = np.maximum(target - capacity, 0)
            target[0] = 0
        keep = target < size
        matrix[queue[keep], target[keep]] += p
        p *= rate_veh_s / (n + 1)
    return matrix


def exact_queues(layout, plan, flows: FlowProfile, horizon_s: int,
                 cutoff: int = 100) -> tuple[list, np.ndarray, float]:
    """The exact E[Q_cycle] of every cycle completed by ``horizon_s``, the
    expected total queue at the end of each tick, and the probability mass
    a lane lost past the queue ``cutoff``.

    A lane's state is G[m, q] = P(queue q, cycle maximum <= m): a tick
    applies the queue transition to every row and clears q > m; a wrap
    restarts the maximum at the wrap tick's queue.  Lanes with the same
    rates and the same phase share one chain.
    """
    size = cutoff + 1
    chains = {}  # (rate column, phase) -> chain index
    lane_chain = []
    for lane in range(N_LANES):
        column = tuple(row[lane] for row in flows.rates_veh_h)
        phase = next(p for p, served in enumerate(PHASE_SERVED) if lane in served)
        lane_chain.append(chains.setdefault((column, phase), len(chains)))
    representative = [lane_chain.index(c) for c in range(len(chains))]
    approaches = {}  # approach letter -> its two lanes
    for lane, name in enumerate(LANE_IDS):
        approaches.setdefault(name[0], []).append(lane)

    inside = np.tril(np.ones((size, size)))  # [m, q]: q <= m
    state = np.zeros((len(chains), size, size))
    state[:, :, 0] = 1.0
    matrices = {}
    q_cycle, queue_by_tick = [], []
    for tick, (flowing, capacity, wrap) in enumerate(
            signal_schedule(layout, plan, horizon_s), start=1):
        drawn = tick - layout.travel_time_to_stopline_s  # the tick these arrivals were drawn
        rates = (flows.rates_and_horizon(drawn - 1)[0] if drawn >= 1
                 else np.zeros(N_LANES))
        key = tuple((rates[lane], lane in flowing, capacity) for lane in representative)
        if key not in matrices:
            matrices[key] = np.stack([_transition(*k, size) for k in key])
        if wrap:
            below = state.sum(axis=2)[lane_chain]  # per lane, P(cycle maximum <= m)
            q_cycle.append(sum(float(np.sum(1.0 - below[i] * below[j]))
                               for i, j in approaches.values()))
        state = (state @ matrices[key]) * inside
        if wrap:
            state = state[:, -1:, :] * inside
        queue = state[:, -1, :] @ np.arange(size)
        queue_by_tick.append(float(queue[lane_chain].sum()))
    lost = float(1.0 - state[:, -1, :].sum(axis=1).min())
    return q_cycle, np.array(queue_by_tick), lost
