"""Reward formulations scoring one decision-interval transition.

Five interchangeable signals, one picked per experiment via
:class:`RewardSpec`: the weighted queue reward (absolute level plus
reduction), waiting-time difference, negated lane pressure, mean vehicle
speed, and a floored negative-total-wait signal (the RESCO reward) used by
the DQN baseline.  All five follow one rule: :func:`reward_level` reads a
level at every decision point and :func:`reward` scores the transition from
the levels at its two ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .sim import FREE_FLOW_SPEED_MS, N_APPROACHES, N_LANES, SimState, sum_in_order
from .staterep import QUEUE_MAX

REWARD_KINDS = ("queue", "delay", "pressure", "speed", "resco_wait")
# the RESCO reward is the negated summed wait over RESCO_SCALE seconds,
# floored at RESCO_FLOOR; the wait is never negative, so it needs no ceiling
RESCO_SCALE = 100.0
RESCO_FLOOR = -4.0


@dataclass(frozen=True)
class RewardSpec:
    """Which reward to use and the queue reward's level weight
    ``alpha_abs``, in [0, 1]; ``alpha_red`` is 1 - ``alpha_abs``."""

    kind: str = "queue"
    alpha_abs: float = 0.4

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ConfigurationError(
                f"unknown reward kind {self.kind!r}; expected one of {REWARD_KINDS}"
            )
        if not 0.0 <= self.alpha_abs <= 1.0:
            raise ConfigurationError(
                f"reward.alpha_abs must lie in [0, 1], got {self.alpha_abs}")

    @property
    def alpha_red(self) -> float:
        return 1.0 - self.alpha_abs


def reward_level(sim: SimState, kind: str):
    """The level reward ``kind`` reads from ``sim`` at a decision point:
    the summed approach queues (queue), the mean lane wait (delay), the
    vehicles queued or in transit (pressure), their mean speed, 0 with none
    (speed), or the summed wait (resco_wait).  The pressure and resco_wait
    levels are ints, so a zero-wait resco_wait reward is 0.0, not -0.0."""
    if kind == "queue":
        return float(sum(sim.approach_queues()))
    if kind == "delay":
        return sum(sim.lane_wait_s(lane) for lane in range(N_LANES)) / N_LANES
    if kind == "pressure":
        return sum(sim.queued) + sum(sim.approaching())
    if kind == "speed":
        approaching = sim.approaching()
        count = sum(approaching) + sum(sim.queued)
        total_speed = sum_in_order(a * FREE_FLOW_SPEED_MS for a in approaching)
        return total_speed / count if count else 0.0
    return sum(sim.lane_wait_s(lane) for lane in range(N_LANES))


def reward(spec: RewardSpec, before, after) -> float:
    """Score a decision interval from the :func:`reward_level` at its start
    (``before``) and at its end (``after``).  queue weights the absolute
    level against its reduction, both over N * QUEUE_MAX, so the terms lie
    in [-alpha_abs, 0] and [-alpha_red, +alpha_red] for queues within the
    nominal storage; delay and pressure score the drop in their level
    (negated pressure, outflow minus inflow, is the drop in vehicles in the
    system); speed scores the level reached; resco_wait negates, scales and
    floors it."""
    kind = spec.kind
    if kind == "queue":
        scale = N_APPROACHES * QUEUE_MAX
        return spec.alpha_abs * (-after / scale) + spec.alpha_red * ((before - after) / scale)
    if kind in ("delay", "pressure"):
        return float(before - after)
    if kind == "speed":
        return after
    return max(-after / RESCO_SCALE, RESCO_FLOOR)
