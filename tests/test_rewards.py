"""Reward-function oracles, bounds, and monotonicity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclab.errors import ConfigurationError
from tsclab.rewards import (
    REWARD_KINDS,
    RewardSpec,
    delay_reward,
    queue_reward,
    resco_wait_reward,
    speed_reward,
)

queues = st.lists(st.floats(min_value=0.0, max_value=25.0), min_size=4, max_size=4)


def test_queue_reward_worked_example():
    r = queue_reward((10, 5, 0, 5), (12, 5, 2, 5))
    assert r == pytest.approx(-0.056, abs=1e-12)


def test_queue_reward_empty_intersection():
    assert queue_reward((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


def test_queue_reward_pure_absolute_at_saturation():
    q = (25, 25, 25, 25)  # total 100 with Q_norm 25: absolute term alone
    assert queue_reward(q, q) == pytest.approx(-0.4, abs=1e-12)


@given(q_t=queues, q_prev=queues)
@settings(max_examples=200, deadline=None)
def test_queue_reward_bounds(q_t, q_prev):
    r = queue_reward(q_t, q_prev)
    assert -1.0 - 1e-12 <= r <= 0.6 + 1e-12


@given(q_t=queues, q_prev=queues,
       j=st.integers(min_value=0, max_value=3),
       bump=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_queue_reward_monotonicity(q_t, q_prev, j, bump):
    base = queue_reward(q_t, q_prev)
    worse_now = list(q_t)
    worse_now[j] += bump
    assert queue_reward(worse_now, q_prev) < base
    worse_before = list(q_prev)
    worse_before[j] += bump
    assert queue_reward(q_t, worse_before) > base


def test_queue_reward_respects_custom_spec():
    spec = RewardSpec(kind="queue", alpha_abs=0.5, alpha_red=0.5, queue_norm=10.0)
    # scale 40: r = 0.5*(-20/40) + 0.5*(4/40)
    assert queue_reward((10, 5, 0, 5), (12, 5, 2, 5), spec) == pytest.approx(-0.2)


def test_delay_reward():
    assert delay_reward(10.0, 8.0) == 2.0
    assert delay_reward(0.0, 0.0) == 0.0
    # per-lane waits (8,0,...) then (16,0,...): averages 1 then 2
    assert delay_reward(8 / 8, 16 / 8) == -1.0


def test_speed_reward():
    assert speed_reward(15.0, 3) == pytest.approx(5.0)
    assert speed_reward(0.0, 0) == 0.0
    # 4 approaching at free flow + 4 queued at zero
    assert speed_reward(4 * 11.11, 8) == pytest.approx(5.555)
    with pytest.raises(ConfigurationError):
        speed_reward(1.0, -1)


def test_resco_wait_reward():
    assert resco_wait_reward(500.0) == -4.0  # clip floor
    assert resco_wait_reward(0.0) == 0.0
    assert resco_wait_reward(150.0) == pytest.approx(-1.5)
    with pytest.raises(ConfigurationError):
        resco_wait_reward(float("inf"))


def test_resco_wait_reward_custom_clip():
    spec = RewardSpec(kind="resco_wait", resco_scale=50.0, clip_min=-2.0,
                      clip_max=2.0)
    assert resco_wait_reward(300.0, spec) == -2.0
    assert resco_wait_reward(25.0, spec) == pytest.approx(-0.5)


def test_reward_spec_validation():
    with pytest.raises(ConfigurationError):
        RewardSpec(kind="nonsense")
    with pytest.raises(ConfigurationError):
        RewardSpec(alpha_abs=0.5, alpha_red=0.6)
    with pytest.raises(ConfigurationError):
        RewardSpec(queue_norm=0.0)
    with pytest.raises(ConfigurationError):
        RewardSpec(clip_min=4.0, clip_max=-4.0)
    with pytest.raises(ConfigurationError):
        RewardSpec(resco_scale=-1.0)
    # every ordering check passes on NaN, so each constant is checked finite first
    for name in ("alpha_abs", "alpha_red", "queue_norm", "resco_scale", "clip_min",
                 "clip_max"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match=f"reward.{name} must be finite"):
                RewardSpec(**{name: bad})
    assert set(REWARD_KINDS) == {"queue", "delay", "pressure", "speed",
                                 "resco_wait"}


def test_rewards_are_pure():
    q_t = np.array([3.0, 1.0, 4.0, 1.0])
    q_prev = np.array([5.0, 1.0, 4.0, 1.0])
    values = {queue_reward(q_t, q_prev) for _ in range(5)}
    assert len(values) == 1
