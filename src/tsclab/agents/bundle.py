"""Artifacts shared by the trainers: the serializable policy bundle, the
training-log row schema, and the result a trainer returns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..neural import Mlp
from ..rewards import REWARD_KINDS
from ..sim import N_ACTIONS
from ..staterep import (CYCLE_TIME_MAX_S, GREEN_MAX_S, KPLANES_FEATURES, KPLANES_RESOLUTION,
                        KPLANES_SEED, QUEUE_MAX, LatentObservation, Observation, make_observation)
from ..weights import encode_tag, load_arrays, mlp_from_arrays, read_fields, save_arrays


@dataclass
class TrainLogRow:
    """One aggregated line of a training run; ``dataclasses.astuple`` gives
    its cells in :data:`TRAINING_LOG_HEADER` order after the first, the
    row's position in its log.

    For the policy-gradient trainer a row covers one rollout/update pass;
    for the DQN it covers a fixed step window and the entropy column records
    the exploration rate instead.  ``mean_q_cycle`` is None when no cycle
    completed inside the window."""

    sim_time_s: float
    mean_reward: float
    mean_q_cycle: float | None
    policy_entropy: float
    value_loss: float


TRAINING_LOG_HEADER = ("rollout_idx", "sim_time_s", "mean_reward",
                       "mean_Q_cycle", "policy_entropy", "value_loss")


def window_log_row(env, first_record: int, rewards, entropy: float,
                   value_loss: float) -> TrainLogRow:
    """The log row of a window that opened when ``env.records`` held
    ``first_record`` records: the clock now, the mean of the window's
    ``rewards``, and the mean Q_cycle of the records since (None if none)."""
    q_vals = [r.q_cycle for r in env.records[first_record:]]
    return TrainLogRow(float(env.clock_s), float(np.mean(rewards)),
                       float(np.mean(q_vals)) if q_vals else None, entropy, value_loss)


def check_budget(total_timesteps: int) -> None:
    """Raise :class:`ConfigurationError` unless a trainer's budget of
    simulated seconds lies in [0, 2**53]: the log's ``sim_time_s`` is a
    float, which counts whole seconds exactly up to 2**53."""
    if not 0 <= total_timesteps <= 2**53:
        raise ConfigurationError(
            f"total_timesteps must lie in [0, 2**53], got {total_timesteps}")


@dataclass
class TrainResult:
    """What a trainer returns: the trained bundle and its log rows.  The
    cycles it completed are the training environment's ``records``."""

    bundle: PolicyBundle
    log: list


# the trainers a bundle can come from: ``algo`` in its weight file's header
ALGORITHMS = ("ppo", "dqn")


@dataclass
class PolicyBundle:
    """A trained (or initialized) controller: its networks and the
    observation they were trained on, one of :mod:`tsclab.staterep`'s."""

    algo: str
    reward_kind: str
    policy: Mlp
    value: Mlp | None
    observation: Observation
    seed: int = 0

    def _header(self) -> tuple[str, np.ndarray]:
        """The tag and normalizer array of this bundle's file; :meth:`load`
        accepts a file only if the bundle it rebuilds gives back both."""
        obs = self.observation
        planes = obs.kind == "kplanes"
        tag = encode_tag(
            algo=self.algo,
            repr=obs.kind,
            reward=self.reward_kind,
            act=self.policy.hidden_activation,
            policy=len(self.policy.parameters()),
            value=len(self.value.parameters()) if self.value is not None else 0,
            encoder=len(obs.encoder.parameters()) if obs.encoder is not None else 0,
            kseed=KPLANES_SEED if planes else -1,
            kres=KPLANES_RESOLUTION if planes else 0,
            kfeat=KPLANES_FEATURES if planes else 0,
        )
        norms = np.array([QUEUE_MAX, GREEN_MAX_S, CYCLE_TIME_MAX_S, obs.cycles_max])
        return tag, norms

    def save(self, path) -> None:
        tag, norms = self._header()
        nets = (self.policy, self.value, self.observation.encoder)
        arrays = [norms] + [a for net in nets if net is not None for a in net.parameters()]
        save_arrays(path, arrays, tag=tag, seed=self.seed)

    @staticmethod
    def load(path) -> "PolicyBundle":
        """Read a bundle and rebuild its observation, the latent of the
        encoder a file holds or else its ``repr``; a file that does not
        parse, that names an algo outside :data:`ALGORITHMS` or a reward
        outside :data:`~tsclab.rewards.REWARD_KINDS`, whose header is not
        the one saving the rebuilt bundle writes, or whose networks do not
        take the observation's length or do not give one output per action
        (policy) or one value, raises :class:`ConfigurationError`."""
        blob = load_arrays(path)
        fields = read_fields(path, blob.tag, algo=str, repr=str, reward=str, act=str,
                             policy=int, value=int, encoder=int)
        for key, kinds in (("algo", ALGORITHMS), ("reward", REWARD_KINDS)):
            if fields[key] not in kinds:
                raise ConfigurationError(
                    f"{path}: unknown {key} {fields[key]!r}; expected one of {kinds}")
        counts = [fields[key] for key in ("policy", "value", "encoder")]
        arrays = blob.arrays
        if min(counts) < 0 or len(arrays) != 1 + sum(counts) or arrays[0].shape != (4,):
            raise ConfigurationError(f"{path}: arrays do not match the header")
        act, kind = fields["act"], fields["repr"]
        cut = 1 + counts[0]
        policy = mlp_from_arrays(arrays[1:cut], act)
        value = mlp_from_arrays(arrays[cut:cut + counts[1]], act) if counts[1] else None
        cut += counts[1]
        cycles_max = float(arrays[0][3])  # finite, as load_arrays checks
        if not cycles_max > 0.0:
            raise ConfigurationError(f"{path}: cycles_max must be positive, got {cycles_max}")
        observation = (LatentObservation(mlp_from_arrays(arrays[cut:], "relu"), cycles_max)
                       if counts[2] else make_observation(kind, cycles_max))
        bundle = PolicyBundle(fields["algo"], fields["reward"], policy, value, observation,
                              blob.seed)
        tag, norms = bundle._header()
        if tag != blob.tag or not np.array_equal(norms.astype(np.float32), arrays[0]):
            raise ConfigurationError(
                f"{path}: header does not describe the bundle it holds")
        for name, net, n_outputs in (("policy", policy, N_ACTIONS), ("value", value, 1)):
            if net is None:
                continue
            if net.layer_sizes[0] != observation.dim:
                raise ConfigurationError(
                    f"{path}: the {name} network takes {net.layer_sizes[0]} inputs, "
                    f"but a {kind} observation has {observation.dim}"
                )
            if net.layer_sizes[-1] != n_outputs:
                raise ConfigurationError(
                    f"{path}: the {name} network has {net.layer_sizes[-1]} outputs, "
                    f"not {n_outputs}"
                )
        return bundle
