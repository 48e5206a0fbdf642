"""Reward oracles, bounds, and monotonicity properties."""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import uniform_profile
from tsclab.envs import SignalControlEnv
from tsclab.errors import ConfigurationError
from tsclab.rewards import RESCO_FLOOR, REWARD_KINDS, RewardSpec, reward, reward_level
from tsclab.sim import (FREE_FLOW_SPEED_MS, IntersectionLayout, N_APPROACHES, N_LANES,
                        PhasePlan, SimState)
from tsclab.staterep import QUEUE_MAX, ExpandedObservation

queues = st.lists(st.floats(min_value=0.0, max_value=25.0), min_size=4, max_size=4)

QUEUE = RewardSpec()


def queue_total_reward(q_t, q_prev, spec: RewardSpec = QUEUE) -> float:
    """The queue reward of per-approach queues, scored on their totals."""
    return reward(spec, float(sum(q_prev)), float(sum(q_t)))


# -- oracle: the per-kind formulas as written before the levels -----------------

def queue_reward(q_t: Sequence[float], q_prev: Sequence[float],
                 spec: RewardSpec = RewardSpec()) -> float:
    """Weighted combination of absolute queue penalty and queue reduction.

    ``q_t`` and ``q_prev`` are the per-approach max queues at this and the
    previous decision point.  Both terms share the normalizer N * 25, the
    nominal storage of the four approaches, so the absolute term lives in
    [-alpha_abs, 0] and the reduction term in [-alpha_red, +alpha_red] for
    queues within it.
    """
    scale = N_APPROACHES * 25.0
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


def resco_wait_reward(total_wait_s: float) -> float:
    """Negative total waiting time over 100 s, clipped to [-4, 4]."""
    if not math.isfinite(total_wait_s):
        raise ConfigurationError("total wait must be finite")
    raw = -total_wait_s / 100.0
    return min(max(raw, -4.0), 4.0)


def kept_levels(sim) -> tuple:
    """The mean wait and the vehicles in the system (queued or in transit),
    the two values the environment once kept from the previous decision."""
    mean_wait = sum(sim.lane_wait_s(lane) for lane in range(N_LANES)) / N_LANES
    in_system = sum(sim.queued) + sum(sum(counts) for _tick, counts in sim.transit)
    return mean_wait, in_system


def oracle_reward(sim, spec: RewardSpec, kept_before: tuple) -> float:
    """The reward of the transition that just ended at ``sim``'s decision
    point, from the inputs the environment once worked out per kind."""
    (wait_before, in_system_before), (wait, in_system) = kept_before, kept_levels(sim)
    if spec.kind == "queue":
        return queue_reward(sim.approach_queues(), sim.decision_queues, spec)
    if spec.kind == "delay":
        return delay_reward(wait_before, wait)
    if spec.kind == "pressure":
        return float(in_system_before - in_system)
    if spec.kind == "speed":
        # an approaching vehicle moves at free flow, a queued one stands
        total_speed = 0.0
        count = 0
        for lane in range(N_LANES):
            approaching = sum(counts[lane] for _tick, counts in sim.transit)
            total_speed += approaching * FREE_FLOW_SPEED_MS
            count += approaching + sim.queued[lane]
        return speed_reward(total_speed, count)
    total_wait = sum(sim.lane_wait_s(lane) for lane in range(N_LANES))
    return resco_wait_reward(total_wait)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(REWARD_KINDS),
       rates=st.lists(st.floats(0.0, 1500.0), min_size=N_LANES, max_size=N_LANES),
       seed=st.integers(0, 2**32 - 1),
       actions=st.lists(st.integers(0, 2), min_size=1, max_size=80))
def test_env_reward_matches_the_oracle_bytewise(kind, rates, seed, actions):
    # float.hex tells -0.0 from 0.0, which == does not
    spec = RewardSpec(kind=kind)
    env = SignalControlEnv(IntersectionLayout(), PhasePlan(), uniform_profile(rates),
                           ExpandedObservation(), spec, seed)
    env.reset()
    kept = kept_levels(env.sim)
    for action in actions:
        r = env.step(action)[1]
        assert float.hex(r) == float.hex(oracle_reward(env.sim, spec, kept))
        kept = kept_levels(env.sim)


# -- the scoring rule on the levels -------------------------------------------

def test_queue_reward_worked_example():
    r = queue_total_reward((10, 5, 0, 5), (12, 5, 2, 5))
    assert r == pytest.approx(-0.056, abs=1e-12)


def test_queue_reward_empty_intersection():
    assert queue_total_reward((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


def test_queue_reward_pure_absolute_at_saturation():
    q = (25, 25, 25, 25)  # total 100 with Q_norm 25: absolute term alone
    assert queue_total_reward(q, q) == pytest.approx(-0.4, abs=1e-12)


@given(q_t=queues, q_prev=queues)
@settings(max_examples=200, deadline=None)
def test_queue_reward_bounds(q_t, q_prev):
    r = queue_total_reward(q_t, q_prev)
    assert -1.0 - 1e-12 <= r <= 0.6 + 1e-12


@given(q_t=queues, q_prev=queues,
       j=st.integers(min_value=0, max_value=3),
       bump=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_queue_reward_monotonicity(q_t, q_prev, j, bump):
    base = queue_total_reward(q_t, q_prev)
    worse_now = list(q_t)
    worse_now[j] += bump
    assert queue_total_reward(worse_now, q_prev) < base
    worse_before = list(q_prev)
    worse_before[j] += bump
    assert queue_total_reward(q_t, worse_before) > base


def test_queue_reward_respects_custom_spec():
    spec = RewardSpec(kind="queue", alpha_abs=0.5)
    # scale 100: r = 0.5*(-20/100) + 0.5*(4/100)
    assert reward(spec, 24.0, 20.0) == pytest.approx(-0.08)


def test_delay_reward():
    delay = RewardSpec(kind="delay")
    assert reward(delay, 10.0, 8.0) == 2.0
    assert reward(delay, 0.0, 0.0) == 0.0
    # per-lane waits (8,0,...) then (16,0,...): averages 1 then 2
    assert reward(delay, 8 / 8, 16 / 8) == -1.0


def test_speed_reward():
    speed = RewardSpec(kind="speed")
    # the mean speed reached, whatever it was before
    assert reward(speed, 0.0, 5.0) == 5.0
    assert reward(speed, 5.555, 0.0) == 0.0
    # an empty intersection has no vehicles to average over
    sim = SimState(IntersectionLayout(), PhasePlan(), uniform_profile([0.0] * N_LANES), 0)
    assert reward_level(sim, "speed") == 0.0


def test_resco_wait_reward():
    resco = RewardSpec(kind="resco_wait")
    assert reward(resco, 0, 500) == -4.0  # clip floor
    assert float.hex(reward(resco, 0, 0)) == float.hex(0.0)  # not -0.0
    assert reward(resco, 0, 150) == pytest.approx(-1.5)


@settings(max_examples=40, deadline=None)
@given(rates=st.lists(st.floats(0.0, 1500.0), min_size=N_LANES, max_size=N_LANES),
       seed=st.integers(0, 2**32 - 1),
       actions=st.lists(st.integers(0, 2), min_size=1, max_size=80))
def test_resco_wait_reward_never_reaches_above_zero(rates, seed, actions):
    # the summed wait, clock x queued - join ticks, is never negative, so
    # the reward lies in [RESCO_FLOOR, 0] and needs no ceiling
    spec = RewardSpec(kind="resco_wait")
    env = SignalControlEnv(IntersectionLayout(), PhasePlan(), uniform_profile(rates),
                           ExpandedObservation(), spec, seed)
    env.reset()
    for action in actions:
        r = env.step(action)[1]
        assert reward_level(env.sim, "resco_wait") >= 0
        assert RESCO_FLOOR <= r <= 0.0


def test_reward_spec_validation():
    with pytest.raises(ConfigurationError):
        RewardSpec(kind="nonsense")
    # alpha_abs and 1 - alpha_abs are the weights of the queue reward's two
    # terms; the range check also refuses NaN and the infinities
    for bad in (-3.0, -1e-9, 1.0 + 1e-9, 1.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError, match=r"reward.alpha_abs must lie in \[0, 1\]"):
            RewardSpec(alpha_abs=bad)
    assert set(REWARD_KINDS) == {"queue", "delay", "pressure", "speed",
                                 "resco_wait"}
    # the reduction's weight is the rest of 1, not a setting of its own
    assert [RewardSpec(alpha_abs=a).alpha_red for a in (0.4, 1.0, 0.0)] == [0.6, 0.0, 1.0]


def test_rewards_are_pure():
    q_t = np.array([3.0, 1.0, 4.0, 1.0])
    q_prev = np.array([5.0, 1.0, 4.0, 1.0])
    values = {queue_total_reward(q_t, q_prev) for _ in range(5)}
    assert len(values) == 1


# -- the discounted sum of the level-based rewards -----------------------------

@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("queue", "delay", "pressure")),
       levels=st.lists(st.floats(0.0, 400.0), min_size=2, max_size=60),
       alpha_abs=st.floats(0.0, 1.0),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
# at a subnormal level the relative bound underflows to 0.0, below the
# one-ulp (5e-324) difference that the rounding makes
@example(kind="queue", levels=[0.0, 2.2250738585e-313], alpha_abs=0.75, gamma=0.5)
def test_discounted_reward_sum_equals_its_closed_form(kind, levels, alpha_abs, gamma):
    # For levels L_0 .. L_T the discounted sum of reward(spec, L_t, L_{t+1})
    # is  a L_0 - w sum_{t<T} gamma^t L_{t+1} - a gamma^T L_T:  a start term
    # and an end term in the level (a potential), and the discounted level
    # at weight w.  queue: a = alpha_red / s and w = (alpha_abs + alpha_red
    # (1 - gamma)) / s with s = N * QUEUE_MAX = 100; delay and pressure: a = 1
    # and w = 1 - gamma.
    spec = RewardSpec(kind=kind, alpha_abs=alpha_abs)
    if kind == "pressure":  # vehicles in the system: a count
        levels = [round(level) for level in levels]
    horizon = len(levels) - 1
    discounts = [gamma ** t for t in range(horizon + 1)]
    rewards = [reward(spec, levels[t], levels[t + 1]) for t in range(horizon)]
    discounted = sum(d * r for d, r in zip(discounts, rewards))

    # every level enters a reward at a weight of at most `unit`
    unit = 1.0 / (N_APPROACHES * QUEUE_MAX) if kind == "queue" else 1.0
    if kind == "queue":
        potential = spec.alpha_red * unit
        level_weight = (spec.alpha_abs + spec.alpha_red * (1.0 - gamma)) * unit
    else:
        potential, level_weight = 1.0, 1.0 - gamma
    closed = (potential * levels[0]
              - level_weight * sum(d * level for d, level in zip(discounts, levels[1:]))
              - potential * discounts[horizon] * levels[horizon])
    # to rounding: a few ulps per term of the largest discounted level, and
    # at least a few of the smallest ulp per term
    tolerance = len(levels) * (1e-13 * unit * max(levels) + 4 * math.ulp(0.0))
    assert abs(discounted - closed) <= tolerance
