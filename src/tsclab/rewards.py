"""Reward formulations scoring one decision-interval transition.

Five interchangeable signals, one picked per experiment via
:class:`RewardSpec`: the weighted queue reward (absolute level plus
reduction), waiting-time difference, negated lane pressure, mean vehicle
speed, and a clipped negative-total-wait signal (the RESCO reward) used by
the DQN baseline.  All five follow one rule: :func:`reward_level` reads a
level at every decision point and :func:`reward` scores the transition from
the levels at its two ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, check_finite_fields
from .sim import N_APPROACHES, N_LANES, SimState

REWARD_KINDS = ("queue", "delay", "pressure", "speed", "resco_wait")


@dataclass(frozen=True)
class RewardSpec:
    """Which reward to use and its constants; ``alpha_red`` is 1 - ``alpha_abs``."""

    kind: str = "queue"
    alpha_abs: float = 0.4
    queue_norm: float = 25.0
    resco_scale: float = 100.0
    clip_min: float = -4.0
    clip_max: float = 4.0

    def __post_init__(self) -> None:
        check_finite_fields("reward", self)
        if self.kind not in REWARD_KINDS:
            raise ConfigurationError(
                f"unknown reward kind {self.kind!r}; expected one of {REWARD_KINDS}"
            )
        if self.queue_norm <= 0.0:
            raise ConfigurationError("queue normalizer must be positive")
        if self.resco_scale <= 0.0:
            raise ConfigurationError("wait-reward scale must be positive")
        if self.clip_min >= self.clip_max:
            raise ConfigurationError("clip bounds must satisfy min < max")

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
        return sum(sim.queued) + sum(sum(counts) for _tick, counts in sim.transit)
    if kind == "speed":
        total_speed, count = 0.0, 0
        for lane in range(N_LANES):
            approaching, queued, _wait, speeds = sim.lane_observables(lane)
            total_speed += speeds
            count += approaching + queued
        return total_speed / count if count else 0.0
    return sum(sim.lane_wait_s(lane) for lane in range(N_LANES))


def reward(spec: RewardSpec, before, after) -> float:
    """Score a decision interval from the :func:`reward_level` at its start
    (``before``) and at its end (``after``).  queue weights the absolute
    level against its reduction, both over N * queue_norm, so the terms lie
    in [-alpha_abs, 0] and [-alpha_red, +alpha_red] for queues within the
    nominal storage; delay and pressure score the drop in their level
    (negated pressure, outflow minus inflow, is the drop in vehicles in the
    system); speed scores the level reached; resco_wait negates, scales and
    clips it."""
    kind = spec.kind
    if kind == "queue":
        scale = N_APPROACHES * spec.queue_norm
        return spec.alpha_abs * (-after / scale) + spec.alpha_red * ((before - after) / scale)
    if kind in ("delay", "pressure"):
        return float(before - after)
    if kind == "speed":
        return after
    return min(max(-after / spec.resco_scale, spec.clip_min), spec.clip_max)
