"""Decision-point view of the simulator for the learning agents.

The simulator ticks once per second, but a controller only acts at decision
points (every ``delta_time`` seconds of green once the minimum green is
served).  :class:`SignalControlEnv` hides the ticks: ``step`` applies one
action, advances the simulation to the next decision point, and returns the
next observation plus the reward for the transition.  The task is continuing;
there is no terminal state, so nothing like a done flag is produced.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .harness.metrics import CycleTracker
from .rewards import (RewardSpec, delay_reward, pressure_reward, queue_reward,
                      resco_wait_reward, speed_reward)
from .sim import (FlowProfile, IntersectionLayout, N_ACTIONS, N_LANES, PhasePlan,
                  SimState, apply_action, at_decision_point, new_simulation, step)

# a decision point arrives within one phase remainder + yellow + minimum
# green of the next phase; anything past a few full cycles is a machine bug
_MAX_TICKS_BETWEEN_DECISIONS = 4000


def run_to_decision(sim: SimState, until_s: int, on_tick=None) -> bool:
    """Advance ``sim`` to its next decision point before ``until_s``.

    Ticks while the clock is below ``until_s``, calling ``on_tick(report)``
    after every tick, so a call made at a decision point moves past it.
    Returns True at the first decision point whose clock is below
    ``until_s`` and False once the clock reaches ``until_s``.  Training,
    evaluation and state collection all step the simulator through here.
    """
    while sim.clock < until_s:
        report = step(sim)
        if on_tick is not None:
            on_tick(report)
        if at_decision_point(sim):
            return sim.clock < until_s
    return False


class DqnObservation:
    """Per-lane feature rows for the DQN baseline, flattened to 40 values.

    Each lane contributes (served-by-active-green flag, approaching count,
    queue length, total wait, summed speeds), scaled by fixed constants so
    magnitudes stay near [0, 1]."""

    kind = "dqn40"
    dim = 5 * N_LANES

    def __init__(self, layout: IntersectionLayout) -> None:
        self._count_scale = float(layout.lane_storage_capacity)
        self._wait_scale = 600.0
        self._speed_scale = layout.lane_storage_capacity * layout.free_flow_speed_ms

    def observe(self, sim: SimState) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        green = sim.green_active()
        for lane in range(N_LANES):
            approaching, queued, wait_s, speeds = sim.lane_observables(lane)
            base = 5 * lane
            out[base] = 1.0 if (green and sim.lane_served(lane)) else 0.0
            out[base + 1] = approaching / self._count_scale
            out[base + 2] = queued / self._count_scale
            out[base + 3] = wait_s / self._wait_scale
            out[base + 4] = speeds / self._speed_scale
        return out


class SignalControlEnv:
    """Continuing decision-point MDP over one intersection.

    ``observation`` is any wrapper with ``kind``, ``dim`` and
    ``observe(sim)``; ``reward_spec`` picks the reward.  ``reset``
    starts a fresh seeded simulation and advances to the first decision
    point; ``step`` returns (observation, reward, info) where info carries
    the cycle records completed during the transition.
    """

    def __init__(self, layout: IntersectionLayout, plan: PhasePlan, flows: FlowProfile,
                 observation, reward_spec: RewardSpec, seed: int,
                 record_events: bool = False) -> None:
        self.layout = layout
        self.plan = plan
        self.flows = flows
        self.observation = observation
        self.reward_spec = reward_spec
        self.seed = seed
        self.record_events = record_events
        self.obs_dim = observation.dim
        self.n_actions = N_ACTIONS
        self.sim: SimState | None = None
        self.cycle_records: list = []

    @property
    def clock_s(self) -> int:
        return 0 if self.sim is None else self.sim.clock

    def reset(self) -> np.ndarray:
        self.sim = new_simulation(self.layout, self.plan, self.flows, self.seed,
                                  record_events=self.record_events)
        self._tracker = CycleTracker()
        self.cycle_records = []
        self._run_to_decision()
        self._prev_wait = self._mean_wait()
        return self.observation.observe(self.sim)

    def step(self, action: int):
        if self.sim is None:
            raise ContractViolation("step called before reset")
        apply_action(self.sim, action)
        new_records = self._run_to_decision()
        reward = self._reward()
        obs = self.observation.observe(self.sim)
        self._prev_wait = self._mean_wait()
        info = {"sim_time_s": self.sim.clock, "cycles": new_records}
        return obs, reward, info

    # -- internals ------------------------------------------------------------

    def _run_to_decision(self) -> list:
        """Tick to the next decision point; count the interval's arrivals and
        discharges and return the cycle records it completed."""
        self._arrived = self._discharged = 0
        self._new_records = []
        if not run_to_decision(self.sim, self.sim.clock + _MAX_TICKS_BETWEEN_DECISIONS,
                               self._on_tick):
            raise ContractViolation("no decision point reached; phase machine is stuck")
        return self._new_records

    def _on_tick(self, report) -> None:
        self._arrived += sum(report.arrivals)
        self._discharged += sum(report.discharges)
        record = self._tracker.feed(report, self.sim.regime())
        if record is not None:
            self._new_records.append(record)
            self.cycle_records.append(record)

    def _mean_wait(self) -> float:
        return sum(self.sim.lane_wait_s(lane) for lane in range(N_LANES)) / N_LANES

    def _reward(self) -> float:
        kind = self.reward_spec.kind
        if kind == "queue":
            return queue_reward(self.sim.approach_queues(), self.sim.decision_queues,
                                self.reward_spec)
        if kind == "delay":
            return delay_reward(self._prev_wait, self._mean_wait())
        if kind == "pressure":
            return pressure_reward((self._arrived,), (self._discharged,))
        if kind == "speed":
            total_speed = 0.0
            count = 0
            for lane in range(N_LANES):
                approaching, queued, _wait, speeds = self.sim.lane_observables(lane)
                total_speed += speeds
                count += approaching + queued
            return speed_reward(total_speed, count)
        total_wait = sum(self.sim.lane_wait_s(lane) for lane in range(N_LANES))
        return resco_wait_reward(total_wait, self.reward_spec)
