"""Reward formulations scoring one decision-interval transition.

Five interchangeable signals, one picked per experiment via
:class:`RewardSpec`: the weighted queue reward (absolute level plus
reduction), waiting-time difference, negated lane pressure, mean vehicle
speed, and a clipped negative-total-wait signal used by the DQN baseline.
Four are the pure functions here.  Negated pressure, outflow minus inflow
over the interval, equals the drop in vehicles in the system, which
:class:`~tsclab.envs.SignalControlEnv` counts itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import ConfigurationError

REWARD_KINDS = ("queue", "delay", "pressure", "speed", "resco_wait")

N_APPROACHES = 4


@dataclass(frozen=True)
class RewardSpec:
    """Which reward to use and its constants."""

    kind: str = "queue"
    alpha_abs: float = 0.4
    alpha_red: float = 0.6
    queue_norm: float = 25.0
    resco_scale: float = 100.0
    clip_min: float = -4.0
    clip_max: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ConfigurationError(
                f"unknown reward kind {self.kind!r}; expected one of {REWARD_KINDS}"
            )
        for f in fields(self):
            if f.name != "kind" and not math.isfinite(getattr(self, f.name)):
                raise ConfigurationError(f"reward.{f.name} must be finite")
        if abs(self.alpha_abs + self.alpha_red - 1.0) > 1e-12:
            raise ConfigurationError("queue reward weights must sum to 1")
        if self.queue_norm <= 0.0:
            raise ConfigurationError("queue normalizer must be positive")
        if self.resco_scale <= 0.0:
            raise ConfigurationError("wait-reward scale must be positive")
        if self.clip_min >= self.clip_max:
            raise ConfigurationError("clip bounds must satisfy min < max")


def queue_reward(q_t: Sequence[float], q_prev: Sequence[float],
                 spec: RewardSpec = RewardSpec()) -> float:
    """Weighted combination of absolute queue penalty and queue reduction.

    ``q_t`` and ``q_prev`` are the per-approach max queues at this and the
    previous decision point.  Both terms share the normalizer N * queue_norm
    so the absolute term lives in [-alpha_abs, 0] and the reduction term in
    [-alpha_red, +alpha_red] for queues within the nominal storage.
    """
    scale = N_APPROACHES * spec.queue_norm
    total_now = float(sum(q_t))
    reduction = float(sum(q_prev)) - total_now
    return spec.alpha_abs * (-total_now / scale) + spec.alpha_red * (reduction / scale)


def delay_reward(w_prev_s: float, w_now_s: float) -> float:
    """Change in average accumulated waiting time across lanes (positive when
    waiting went down)."""
    return w_prev_s - w_now_s


def speed_reward(sum_speeds_ms: float, vehicle_count: int) -> float:
    """Mean speed of vehicles currently in the network; 0 when empty."""
    if vehicle_count < 0:
        raise ConfigurationError("vehicle count must be non-negative")
    if vehicle_count == 0:
        return 0.0
    return sum_speeds_ms / vehicle_count


def resco_wait_reward(total_wait_s: float, spec: RewardSpec = RewardSpec(kind="resco_wait")) -> float:
    """Scaled, clipped negative total waiting time."""
    if not math.isfinite(total_wait_s):
        raise ConfigurationError("total wait must be finite")
    raw = -total_wait_s / spec.resco_scale
    return min(max(raw, spec.clip_min), spec.clip_max)
