"""Proximal policy optimization with a clipped surrogate, from first
principles: rollout collection, generalized advantage estimation, and
minibatched updates with hand-derived gradients through the categorical
policy head and the squared-error value head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, DivergenceError, allocate, check_non_negative
from ..neural import Adam, Mlp, check_hidden_layers, log_softmax, softmax_sample
from .bundle import PolicyBundle, TrainLogRow, TrainResult, check_budget, window_log_row


@dataclass(frozen=True)
class PpoConfig:
    """PPO settings.  The defaults are the ones tuned for this simulator's
    default scenario (acceptance check C6 trains with them), not the
    paper's SUMO settings."""

    learning_rate: float = 1e-3
    n_steps: int = 100
    batch_size: int = 50
    n_epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.1
    total_timesteps: int = 100_000
    value_coef: float = 0.5
    entropy_coef: float = 0.005
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
        check_budget(self.total_timesteps)
        for name in ("learning_rate", "value_coef", "entropy_coef"):
            check_non_negative(name, getattr(self, name))
        check_hidden_layers(self.hidden_sizes, self.activation)


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
    return np.minimum(r * a, np.minimum(np.maximum(r, 1.0 - epsilon), 1.0 + epsilon) * a)


@dataclass
class MiniBatch:
    obs: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


@dataclass
class SurrogateResult:
    policy_loss: float
    value_loss: float
    entropy: float
    # the nets' own gradient vectors, policy.grad and value_net.grad: valid
    # until the next backward on those nets overwrites them
    policy_grads: np.ndarray
    value_grads: np.ndarray
    mean_ratio_dev: float
    clip_fraction: float


def ppo_surrogate(batch: MiniBatch, policy: Mlp, value_net: Mlp,
                  clip_epsilon: float, value_coef: float,
                  entropy_coef: float) -> SurrogateResult:
    """Exact gradients of the clipped loss on one minibatch, with the loss's
    policy, value and entropy terms reported apart.

    loss = -mean(min(r*A, clip(r)*A)) + value_coef * value-MSE
           - entropy_coef * mean(entropy).

    The ratio gradient flows only through samples whose unclipped branch is
    active; the derivative of the ratio with respect to the logits is
    r * (onehot(a) - softmax(logits)).

    The gradients returned are ``policy.grad`` and ``value_net.grad``, not
    copies: the next backward on either net overwrites them, so use or copy
    them before that.
    """
    n = batch.obs.shape[0]
    logits = policy.forward(batch.obs)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    rows = np.arange(n)
    logp = logp_all[rows, batch.actions]
    ratio = np.exp(logp - batch.old_log_probs)
    if not np.isfinite(ratio).all():
        raise DivergenceError("non-finite policy ratios in surrogate")

    adv = batch.advantages
    unclipped = ratio * adv
    per_sample = clipped_objective(ratio, adv, clip_epsilon)
    policy_loss = -(float(per_sample.sum()) / n)

    # d(objective)/d(ratio): the advantage where the unclipped branch wins
    # (the minimum equals the unclipped branch exactly when it is not larger)
    dobj_dratio = np.where(per_sample == unclipped, adv, 0.0)
    coef = (-1.0 / n) * dobj_dratio * ratio
    # coef * (onehot(a) - probs), built in place; 0.0 - probs rather than
    # -probs keeps the sign of a zero probability as the subtraction has it
    upstream = 0.0 - probs
    upstream[rows, batch.actions] += 1.0
    upstream *= coef[:, None]

    entropy = -(probs * logp_all).sum(axis=1)
    # d(-entropy_coef * mean(H))/d(logits)
    upstream += (entropy_coef / n) * probs * (logp_all + entropy[:, None])
    policy_grads, _ = policy.backward(upstream, input_grad=False)

    v = value_net.forward(batch.obs)[:, 0]
    v_err = v - batch.returns
    value_grads, _ = value_net.backward((2.0 * value_coef / n) * v_err[:, None],
                                        input_grad=False)

    ratio_dev = np.abs(ratio - 1.0)
    return SurrogateResult(
        policy_loss=policy_loss,
        value_loss=float((v_err * v_err).sum()) / n,
        entropy=float(entropy.sum()) / n,
        policy_grads=policy_grads,
        value_grads=value_grads,
        mean_ratio_dev=float(ratio_dev.sum()) / n,
        clip_fraction=np.count_nonzero(ratio_dev > clip_epsilon) / n,
    )


def train_ppo(env, cfg: PpoConfig = PpoConfig(), seed: int = 0) -> TrainResult:
    """Train a policy on ``env``, which training resets once.

    The environment must expose ``obs_dim``, ``n_actions``, ``clock_s``,
    ``reset() -> obs``, ``step(a) -> (obs, reward)`` and ``records``, the
    cycle records completed since ``reset``, which the result returns; the
    budget counts simulated seconds via ``clock_s``.  Its ``observation`` and
    ``reward_spec.kind`` go into the returned bundle.  All randomness (network
    init, action sampling, minibatch shuffling) derives from ``seed``, so a
    (seed, config) pair reproduces the run bit for bit.
    """
    ss = np.random.SeedSequence(seed)
    s_policy, s_value, s_act, s_shuffle = ss.spawn(4)
    policy = Mlp([env.obs_dim, *cfg.hidden_sizes, env.n_actions],
                 cfg.activation, seed=s_policy)
    value_net = Mlp([env.obs_dim, *cfg.hidden_sizes, 1], cfg.activation, seed=s_value)
    act_rng = np.random.Generator(np.random.PCG64(s_act))
    shuffle_rng = np.random.Generator(np.random.PCG64(s_shuffle))
    opt_policy = Adam(policy.flat, cfg.learning_rate)
    opt_value = Adam(value_net.flat, cfg.learning_rate)

    n_steps = cfg.n_steps
    rollout_obs = allocate("ppo.n_steps", (n_steps, env.obs_dim))
    actions = allocate("ppo.n_steps", (n_steps,), np.int64)
    log_probs = allocate("ppo.n_steps", (n_steps,))
    rewards = allocate("ppo.n_steps", (n_steps,))
    values = allocate("ppo.n_steps", (n_steps,))
    log: list[TrainLogRow] = []
    obs = env.reset()
    while env.clock_s < cfg.total_timesteps:
        first_record = len(env.records)
        for t in range(n_steps):
            rollout_obs[t] = obs
            action, log_probs[t] = softmax_sample(policy.predict(obs), act_rng)
            actions[t] = action
            values[t] = value_net.predict(obs)[0]
            obs, rewards[t] = env.step(action)
        next_value = float(value_net.predict(obs)[0])
        advantages, returns = compute_gae(rewards, values, next_value,
                                          cfg.gamma, cfg.gae_lambda)
        advantages = normalize_advantages(advantages)

        entropy_sum = 0.0
        value_loss_sum = 0.0
        n_updates = 0
        for _epoch in range(cfg.n_epochs):
            order = shuffle_rng.permutation(n_steps)
            for start in range(0, n_steps, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                mb = MiniBatch(rollout_obs[idx], actions[idx], log_probs[idx],
                               advantages[idx], returns[idx])
                res = ppo_surrogate(mb, policy, value_net, cfg.clip_epsilon,
                                    cfg.value_coef, cfg.entropy_coef)
                if res.mean_ratio_dev > 10.0:
                    raise DivergenceError(
                        f"policy ratios diverged at rollout {len(log)} "
                        f"(mean |ratio-1| = {res.mean_ratio_dev:.3g})"
                    )
                opt_policy.step(res.policy_grads)
                opt_value.step(res.value_grads)
                entropy_sum += res.entropy
                value_loss_sum += res.value_loss
                n_updates += 1

        log.append(window_log_row(env, first_record, rewards, entropy_sum / n_updates,
                                  value_loss_sum / n_updates))

    bundle = PolicyBundle("ppo", env.reward_spec.kind, policy, value_net,
                          env.observation, seed)
    return TrainResult(bundle, log, env.records)
