"""Decision-point view of the simulator for the learning agents.

The simulator ticks once per second, but a controller only acts at decision
points (every ``delta_time`` seconds of green once the minimum green is
served).  :class:`SignalControlEnv` hides the ticks: ``step`` applies one
action, advances the simulation to the next decision point, and returns the
next observation plus the reward for the transition, scored by
:mod:`tsclab.rewards` from the reward's level at the transition's two ends.
The task is continuing; there is no terminal state, so nothing like a done
flag is produced.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .harness.metrics import CycleTracker
from .rewards import RewardSpec, reward, reward_level
from .sim import (FlowProfile, IntersectionLayout, N_ACTIONS, PhasePlan, SimState,
                  apply_action, at_decision_point, step)


def run_to_decision(sim: SimState, until_s: int, on_tick=None) -> bool:
    """Advance ``sim`` to its next decision point before ``until_s``.

    Ticks while the clock is below ``until_s``, calling ``on_tick(sim)``,
    if given, after every tick, so a call made at a decision point moves
    past it.  The hook reads the tick from ``sim`` (its ``arrivals`` and
    ``phase_changed`` describe the tick just run).
    Returns True at the first decision point whose clock is below
    ``until_s`` and False once the clock reaches ``until_s``.  Training,
    evaluation and state collection all step the simulator through here.
    """
    while sim.clock < until_s:
        step(sim)
        if on_tick is not None:
            on_tick(sim)
        if at_decision_point(sim):
            return sim.clock < until_s
    return False


class SignalControlEnv:
    """Continuing decision-point MDP over one intersection.

    ``observation`` is one of :mod:`tsclab.staterep`'s observations
    (see ``make_observation``); ``reward_spec`` picks the reward.  ``reset``
    starts a fresh seeded simulation, advances to the first decision point
    and reads the reward's level there; ``step`` returns (observation,
    reward, records) where records are the cycle records completed during
    the transition, and keeps the level it reached for the next step.
    """

    def __init__(self, layout: IntersectionLayout, plan: PhasePlan, flows: FlowProfile,
                 observation, reward_spec: RewardSpec, seed: int) -> None:
        self.layout = layout
        self.plan = plan
        self.flows = flows
        self.observation = observation
        self.reward_spec = reward_spec
        self.seed = seed
        self.obs_dim = observation.dim
        self.n_actions = N_ACTIONS
        self.sim: SimState | None = None

    @property
    def clock_s(self) -> int:
        return 0 if self.sim is None else self.sim.clock

    def reset(self) -> np.ndarray:
        self.sim = SimState(self.layout, self.plan, self.flows, self.seed)
        self._tracker = CycleTracker(self.flows)
        self._run_to_decision()
        self._level = reward_level(self.sim, self.reward_spec.kind)
        return self.observation.observe(self.sim)

    def step(self, action: int):
        if self.sim is None:
            raise ContractViolation("step called before reset")
        apply_action(self.sim, action)
        records = self._run_to_decision()
        before, self._level = self._level, reward_level(self.sim, self.reward_spec.kind)
        r = reward(self.reward_spec, before, self._level)
        return self.observation.observe(self.sim), r, records

    # -- internals ------------------------------------------------------------

    def _run_to_decision(self) -> list:
        """Tick to the next decision point and return the cycle records it
        completed."""
        first_new = len(self.sim.completed_cycles)
        if not run_to_decision(self.sim, self.sim.clock + self.plan.longest_cycle_s):
            raise ContractViolation("no decision point reached; phase machine is stuck")
        return [self._tracker.feed(entry) for entry in self.sim.completed_cycles[first_new:]]
