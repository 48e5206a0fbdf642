"""Artifacts shared by the trainers: the serializable policy bundle, the
training-log row schema, and the result a trainer returns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..neural import Mlp
from ..sim import N_ACTIONS
from ..staterep import KPlanesParams, Observation, StateNormalizers, make_observation
from ..weights import encode_tag, load_arrays, mlp_from_arrays, parse_tag, save_arrays


@dataclass
class TrainLogRow:
    """One aggregated line of a training run; ``dataclasses.astuple`` gives
    its cells in :data:`TRAINING_LOG_HEADER` order.

    For the policy-gradient trainer a row covers one rollout/update pass;
    for the DQN it covers a fixed step window and the entropy column records
    the exploration rate instead.  ``mean_q_cycle`` is None when no cycle
    completed inside the window."""

    rollout_idx: int
    sim_time_s: float
    mean_reward: float
    mean_q_cycle: float | None
    policy_entropy: float
    value_loss: float


TRAINING_LOG_HEADER = ("rollout_idx", "sim_time_s", "mean_reward",
                       "mean_Q_cycle", "policy_entropy", "value_loss")


@dataclass
class TrainResult:
    """What a trainer returns: the trained bundle, its log rows, and every
    cycle record the training environment completed, in order."""

    bundle: PolicyBundle
    log: list
    cycle_records: list


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

    def greedy_action(self, obs: np.ndarray) -> int:
        return int(np.argmax(self.policy.predict(obs)))

    def save(self, path) -> None:
        obs = self.observation
        policy_arrays = self.policy.parameters()
        value_arrays = self.value.parameters() if self.value is not None else []
        encoder_arrays = obs.encoder.parameters() if obs.encoder is not None else []
        tag = encode_tag(
            algo=self.algo,
            repr=obs.kind,
            reward=self.reward_kind,
            act=self.policy.hidden_activation,
            policy=len(policy_arrays),
            value=len(value_arrays),
            encoder=len(encoder_arrays),
            kseed=obs.params.seed if obs.params is not None else -1,
            kres=obs.params.resolution if obs.params is not None else 0,
            kfeat=obs.params.feature_dim if obs.params is not None else 0,
        )
        arrays = [obs.norms.as_array()] + policy_arrays + value_arrays + encoder_arrays
        save_arrays(path, arrays, tag=tag, seed=self.seed)

    @staticmethod
    def load(path) -> "PolicyBundle":
        """Read a bundle and rebuild its observation; a file that does not
        parse, or whose networks do not take the observation's length or do
        not give one output per action (policy) or one value, raises
        :class:`ConfigurationError`."""
        blob = load_arrays(path)
        fields = parse_tag(blob.tag)
        try:
            algo, kind, reward_kind, act = (
                fields[key] for key in ("algo", "repr", "reward", "act"))
            n_policy, n_value, n_encoder = (
                int(fields[key]) for key in ("policy", "value", "encoder"))
            kseed = int(fields.get("kseed", -1))
            kplanes = None
            if kseed >= 0:
                kplanes = KPlanesParams(kseed, int(fields["kres"]), int(fields["kfeat"]))
        except KeyError as missing:
            raise ConfigurationError(f"{path}: not a policy bundle (missing {missing})")
        except ValueError as exc:
            raise ConfigurationError(f"{path}: bad policy bundle header ({exc})") from exc
        arrays = blob.arrays
        if len(arrays) != 1 + n_policy + n_value + n_encoder:
            raise ConfigurationError(f"{path}: array count does not match the header")
        if arrays[0].shape != (4,):
            raise ConfigurationError(f"{path}: normalizer array must hold 4 values")
        norms = StateNormalizers.from_array(arrays[0])
        cursor = 1
        policy = mlp_from_arrays(arrays[cursor:cursor + n_policy], act)
        cursor += n_policy
        value = None
        if n_value:
            value = mlp_from_arrays(arrays[cursor:cursor + n_value], act)
            cursor += n_value
        encoder = None
        if n_encoder:
            encoder = mlp_from_arrays(arrays[cursor:cursor + n_encoder], "relu")
        observation = make_observation(kind, norms, ae_encoder=encoder,
                                       kplanes_params=kplanes)
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
        return PolicyBundle(algo, reward_kind, policy, value, observation, blob.seed)
