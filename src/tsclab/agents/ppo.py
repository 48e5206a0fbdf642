"""Proximal policy optimization with a clipped surrogate, from first
principles: rollout collection, generalized advantage estimation, and
minibatched updates with hand-derived gradients through the categorical
policy head and the squared-error value head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..neural import Adam, Mlp, log_softmax, softmax_sample
from .bundle import PolicyBundle, TrainLogRow, bundle_for_env


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 3e-6
    n_steps: int = 200
    batch_size: int = 64
    n_epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    total_timesteps: int = 100_000
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    hidden_sizes: tuple = (64, 64)
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not 0.0 < self.gae_lambda <= 1.0:
            raise ConfigurationError("gae_lambda must lie in (0, 1]")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigurationError("clip_epsilon must lie in (0, 1)")
        if self.batch_size < 1 or self.batch_size > self.n_steps:
            raise ConfigurationError("batch_size must lie in [1, n_steps]")
        if self.n_steps < 1 or self.n_epochs < 1:
            raise ConfigurationError("n_steps and n_epochs must be positive")
        if self.learning_rate < 0.0 or self.total_timesteps < 0:
            raise ConfigurationError("learning rate and timesteps must be non-negative")


def compute_gae(rewards: Sequence[float], values: Sequence[float], next_value: float,
                gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one buffer.

    The task is continuing, so the buffer boundary bootstraps with
    ``next_value`` rather than terminating.  Returns (advantages, returns)
    with returns = advantages + values.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if r.shape != v.shape or r.ndim != 1:
        raise ValueError("rewards and values must be equally long 1-D sequences")
    v_next = np.append(v[1:], float(next_value))
    deltas = r + gamma * v_next - v
    advantages = np.zeros_like(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        advantages[t] = acc
    return advantages, advantages + v


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    adv = np.asarray(advantages, dtype=np.float64)
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def clipped_objective(ratio, advantage, epsilon):
    """Per-sample clipped surrogate: min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    r = np.asarray(ratio, dtype=np.float64)
    a = np.asarray(advantage, dtype=np.float64)
    return np.minimum(r * a, np.clip(r, 1.0 - epsilon, 1.0 + epsilon) * a)


@dataclass
class MiniBatch:
    obs: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


class RolloutBuffer:
    """Fixed-length on-policy transition store."""

    def __init__(self, n_steps: int, obs_dim: int) -> None:
        self.n_steps = n_steps
        self.obs = np.zeros((n_steps, obs_dim), dtype=np.float64)
        self.actions = np.zeros(n_steps, dtype=np.int64)
        self.log_probs = np.zeros(n_steps, dtype=np.float64)
        self.rewards = np.zeros(n_steps, dtype=np.float64)
        self.values = np.zeros(n_steps, dtype=np.float64)
        self.advantages: np.ndarray | None = None
        self.returns: np.ndarray | None = None
        self.pos = 0

    def reset(self) -> None:
        self.pos = 0
        self.advantages = None
        self.returns = None

    @property
    def full(self) -> bool:
        return self.pos >= self.n_steps

    def add(self, obs, action: int, log_prob: float, reward: float, value: float) -> None:
        if self.full:
            raise ValueError("rollout buffer is full")
        self.obs[self.pos] = obs
        self.actions[self.pos] = action
        self.log_probs[self.pos] = log_prob
        self.rewards[self.pos] = reward
        self.values[self.pos] = value
        self.pos += 1

    def finalize(self, next_value: float, gamma: float, lam: float) -> None:
        """Compute advantages (normalized to mean 0, std 1) and returns."""
        if not self.full:
            raise ValueError("finalize needs a full buffer")
        advantages, returns = compute_gae(self.rewards, self.values, next_value,
                                          gamma, lam)
        self.advantages = normalize_advantages(advantages)
        self.returns = returns

    def minibatches(self, batch_size: int, rng: np.random.Generator):
        if self.advantages is None or self.returns is None:
            raise ValueError("finalize must run before minibatching")
        order = rng.permutation(self.n_steps)
        for start in range(0, self.n_steps, batch_size):
            idx = order[start:start + batch_size]
            yield MiniBatch(
                obs=self.obs[idx],
                actions=self.actions[idx],
                old_log_probs=self.log_probs[idx],
                advantages=self.advantages[idx],
                returns=self.returns[idx],
            )


@dataclass
class SurrogateResult:
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    policy_grads: list
    value_grads: list
    mean_ratio_dev: float
    clip_fraction: float


def ppo_surrogate(batch: MiniBatch, policy: Mlp, value_net: Mlp,
                  clip_epsilon: float, value_coef: float = 0.5,
                  entropy_coef: float = 0.01) -> SurrogateResult:
    """Loss and exact gradients of the clipped objective on one minibatch.

    loss = -mean(min(r*A, clip(r)*A)) + value_coef * value-MSE
           - entropy_coef * mean(entropy).

    The ratio gradient flows only through samples whose unclipped branch is
    active; the derivative of the ratio with respect to the logits is
    r * (onehot(a) - softmax(logits)).
    """
    n = batch.obs.shape[0]
    logits = policy.forward(batch.obs)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    rows = np.arange(n)
    logp = logp_all[rows, batch.actions]
    ratio = np.exp(logp - batch.old_log_probs)
    if not np.all(np.isfinite(ratio)):
        raise DivergenceError("non-finite policy ratios in surrogate")

    adv = batch.advantages
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * adv
    per_sample = clipped_objective(ratio, adv, clip_epsilon)
    policy_loss = -float(per_sample.mean())

    # d(objective)/d(ratio): the advantage where the unclipped branch wins
    active = unclipped <= clipped
    dobj_dratio = np.where(active, adv, 0.0)
    onehot = np.zeros_like(probs)
    onehot[rows, batch.actions] = 1.0
    coef = (-1.0 / n) * dobj_dratio * ratio
    upstream = coef[:, None] * (onehot - probs)

    entropy = -np.sum(probs * logp_all, axis=1)
    # d(-entropy_coef * mean(H))/d(logits)
    upstream += (entropy_coef / n) * probs * (logp_all + entropy[:, None])
    policy_grads, _ = policy.backward(upstream)

    v = value_net.forward(batch.obs)[:, 0]
    v_err = v - batch.returns
    value_loss = float(np.mean(v_err * v_err))
    value_grads, _ = value_net.backward((2.0 * value_coef / n) * v_err[:, None])

    mean_entropy = float(entropy.mean())
    loss = policy_loss + value_coef * value_loss - entropy_coef * mean_entropy
    return SurrogateResult(
        loss=loss,
        policy_loss=policy_loss,
        value_loss=value_loss,
        entropy=mean_entropy,
        policy_grads=policy_grads,
        value_grads=value_grads,
        mean_ratio_dev=float(np.mean(np.abs(ratio - 1.0))),
        clip_fraction=float(np.mean(np.abs(ratio - 1.0) > clip_epsilon)),
    )


@dataclass
class PpoResult:
    bundle: PolicyBundle
    log: list
    cycle_records: list = field(default_factory=list)


def train_ppo(env_factory: Callable[[int], object], cfg: PpoConfig = PpoConfig(),
              seed: int = 0) -> PpoResult:
    """Train a policy on the environment built by ``env_factory(seed)``.

    The environment must expose ``obs_dim``, ``n_actions``, ``clock_s``,
    ``reset() -> obs`` and ``step(a) -> (obs, reward, info)``; the budget
    counts simulated seconds via ``clock_s``.  All randomness (network
    init, action sampling, minibatch shuffling) derives from ``seed``, so a
    (seed, config) pair reproduces the run bit for bit.
    """
    env = env_factory(seed)
    ss = np.random.SeedSequence(seed)
    s_policy, s_value, s_act, s_shuffle = ss.spawn(4)
    policy = Mlp([env.obs_dim, *cfg.hidden_sizes, env.n_actions],
                 cfg.activation, seed=s_policy)
    value_net = Mlp([env.obs_dim, *cfg.hidden_sizes, 1], cfg.activation, seed=s_value)
    act_rng = np.random.Generator(np.random.PCG64(s_act))
    shuffle_rng = np.random.Generator(np.random.PCG64(s_shuffle))
    opt_policy = Adam(policy.parameters(), cfg.learning_rate)
    opt_value = Adam(value_net.parameters(), cfg.learning_rate)

    buffer = RolloutBuffer(cfg.n_steps, env.obs_dim)
    log: list[TrainLogRow] = []
    all_records: list = []
    obs = env.reset()
    rollout_idx = 0
    while env.clock_s < cfg.total_timesteps:
        buffer.reset()
        rollout_records: list = []
        while not buffer.full:
            action, log_prob, _probs = softmax_sample(policy.predict(obs), act_rng)
            value = float(value_net.predict(obs)[0])
            next_obs, reward, info = env.step(action)
            buffer.add(obs, action, log_prob, reward, value)
            rollout_records.extend(info.get("cycles", ()))
            obs = next_obs
        buffer.finalize(float(value_net.predict(obs)[0]), cfg.gamma, cfg.gae_lambda)

        entropy_sum = 0.0
        value_loss_sum = 0.0
        n_updates = 0
        for _epoch in range(cfg.n_epochs):
            for mb in buffer.minibatches(cfg.batch_size, shuffle_rng):
                res = ppo_surrogate(mb, policy, value_net, cfg.clip_epsilon,
                                    cfg.value_coef, cfg.entropy_coef)
                if res.mean_ratio_dev > 10.0:
                    raise DivergenceError(
                        f"policy ratios diverged at rollout {rollout_idx} "
                        f"(mean |ratio-1| = {res.mean_ratio_dev:.3g})"
                    )
                opt_policy.step(policy.gradient_arrays(res.policy_grads))
                opt_value.step(value_net.gradient_arrays(res.value_grads))
                entropy_sum += res.entropy
                value_loss_sum += res.value_loss
                n_updates += 1

        all_records.extend(rollout_records)
        q_vals = [r.q_cycle for r in rollout_records]
        log.append(TrainLogRow(
            rollout_idx=rollout_idx,
            sim_time_s=float(env.clock_s),
            mean_reward=float(buffer.rewards.mean()),
            mean_q_cycle=(float(np.mean(q_vals)) if q_vals else None),
            policy_entropy=entropy_sum / n_updates,
            value_loss=value_loss_sum / n_updates,
        ))
        rollout_idx += 1

    bundle = bundle_for_env("ppo", env, policy, value_net, seed)
    return PpoResult(bundle=bundle, log=log, cycle_records=all_records)
