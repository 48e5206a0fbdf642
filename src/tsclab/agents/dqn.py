"""Dense deep Q-learning baseline with replay and a target network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DivergenceError, allocate, check_non_negative
from ..neural import Adam, Mlp, check_hidden_layers
from .bundle import PolicyBundle, TrainLogRow, TrainResult, check_budget, window_log_row


@dataclass(frozen=True)
class DqnConfig:
    learning_rate: float = 1e-4
    replay_capacity: int = 50_000
    batch_size: int = 64
    target_sync_interval: int = 1000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 20_000
    gamma: float = 0.99
    total_timesteps: int = 100_000
    hidden_sizes: tuple = (64, 64)
    activation: str = "relu"
    log_interval_steps: int = 200

    def __post_init__(self) -> None:
        check_non_negative("learning_rate", self.learning_rate)
        if self.replay_capacity < self.batch_size:
            raise ConfigurationError("replay capacity must be at least the batch size")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ConfigurationError("epsilon schedule must satisfy 0 <= end <= start <= 1")
        if self.epsilon_decay_steps < 1 or self.target_sync_interval < 1:
            raise ConfigurationError("decay steps and sync interval must be positive")
        if self.log_interval_steps < 1:
            raise ConfigurationError("log interval must be positive")
        check_budget(self.total_timesteps)
        check_hidden_layers(self.hidden_sizes, self.activation)


def epsilon_at(cfg: DqnConfig, step: int) -> float:
    """Linear exploration schedule from start to end over the decay steps."""
    frac = min(max(step, 0) / cfg.epsilon_decay_steps, 1.0)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


class ReplayBuffer:
    """Circular transition store of ``capacity`` rows (at least 1, as
    :class:`DqnConfig` checks); uniform sampling with replacement."""

    def __init__(self, capacity: int, obs_dim: int) -> None:
        self.capacity = capacity
        self.obs = allocate("dqn.replay_capacity", (capacity, obs_dim))
        self.actions = allocate("dqn.replay_capacity", (capacity,), np.int64)
        self.rewards = allocate("dqn.replay_capacity", (capacity,))
        self.next_obs = allocate("dqn.replay_capacity", (capacity, obs_dim))
        self._size = 0
        self._pos = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, action: int, reward: float, next_obs) -> None:
        p = self._pos
        self.obs[p] = obs
        self.actions[p] = action
        self.rewards[p] = reward
        self.next_obs[p] = next_obs
        self._pos = (p + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self._size, size=batch_size)
        return (self.obs[idx], self.actions[idx], self.rewards[idx], self.next_obs[idx])


def train_dqn(env, cfg: DqnConfig = DqnConfig(), seed: int = 0) -> TrainResult:
    """Replay + target-network Q-learning over the environment's actions.

    The environment speaks :func:`~tsclab.agents.ppo.train_ppo`'s protocol:
    ``obs_dim``, ``n_actions``, ``clock_s``, ``reset``, ``step`` and
    ``records``, plus the ``observation`` and ``reward_spec.kind`` that go
    into the returned bundle.  The task is continuing, so targets always
    bootstrap from the target network (no terminal masking).  Updates start
    once the replay holds one batch; earlier steps only explore.
    Deterministic for a fixed (seed, config) pair.
    """
    ss = np.random.SeedSequence(seed)
    s_net, s_explore, s_sample = ss.spawn(3)
    q_net = Mlp([env.obs_dim, *cfg.hidden_sizes, env.n_actions],
                cfg.activation, seed=s_net)
    target_net = Mlp(q_net.layer_sizes, cfg.activation)
    opt = Adam(q_net.flat, cfg.learning_rate)
    explore_rng = np.random.Generator(np.random.PCG64(s_explore))
    sample_rng = np.random.Generator(np.random.PCG64(s_sample))
    replay = ReplayBuffer(cfg.replay_capacity, env.obs_dim)

    log: list[TrainLogRow] = []
    window_rewards: list = []
    window_losses: list = []
    window_first_record = 0
    obs = env.reset()
    step_count = 0
    rows = np.arange(cfg.batch_size)
    while env.clock_s < cfg.total_timesteps:
        if step_count % cfg.target_sync_interval == 0:
            target_net.flat[...] = q_net.flat
        eps = epsilon_at(cfg, step_count)
        if explore_rng.random() < eps:
            action = int(explore_rng.integers(env.n_actions))
        else:
            action = int(np.argmax(q_net.predict(obs)))
        next_obs, reward = env.step(action)
        replay.add(obs, action, reward, next_obs)
        obs = next_obs
        window_rewards.append(reward)

        if len(replay) >= cfg.batch_size:
            b_obs, b_act, b_rew, b_next = replay.sample(cfg.batch_size, sample_rng)
            targets = b_rew + cfg.gamma * target_net.predict(b_next).max(axis=1)
            q_values = q_net.forward(b_obs)
            err = q_values[rows, b_act] - targets
            loss = float(np.mean(err * err))
            if not np.isfinite(loss):
                raise DivergenceError(f"Q-learning loss diverged at step {step_count}")
            upstream = np.zeros_like(q_values)
            upstream[rows, b_act] = (2.0 / cfg.batch_size) * err
            gradient, _ = q_net.backward(upstream, input_grad=False)
            opt.step(gradient)
            window_losses.append(loss)

        step_count += 1
        if step_count % cfg.log_interval_steps == 0:
            log.append(window_log_row(
                env, window_first_record, window_rewards, eps,
                float(np.mean(window_losses)) if window_losses else 0.0))
            window_rewards = []
            window_losses = []
            window_first_record = len(env.records)

    bundle = PolicyBundle("dqn", env.reward_spec.kind, q_net, None,
                          env.observation, seed)
    return TrainResult(bundle, log, env.records)
