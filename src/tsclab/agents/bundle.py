"""Artifacts shared by the trainers: the serializable policy bundle and the
training-log row schema."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..neural import Mlp
from ..staterep import KPlanesParams, StateNormalizers
from ..weights import encode_tag, load_arrays, mlp_from_arrays, parse_tag, save_arrays


@dataclass
class TrainLogRow:
    """One aggregated line of a training run.

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


def write_training_log_csv(path, rows: Iterable[TrainLogRow]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAINING_LOG_HEADER)
        for r in rows:
            writer.writerow([
                r.rollout_idx, r.sim_time_s, repr(r.mean_reward),
                "" if r.mean_q_cycle is None else repr(r.mean_q_cycle),
                repr(r.policy_entropy), repr(r.value_loss),
            ])


@dataclass
class PolicyBundle:
    """A trained (or initialized) controller: networks plus everything needed
    to rebuild its observation pipeline."""

    algo: str
    repr_kind: str
    reward_kind: str
    policy: Mlp
    value: Mlp | None = None
    ae_encoder: Mlp | None = None
    kplanes: KPlanesParams | None = None
    norms: StateNormalizers = StateNormalizers()
    seed: int = 0

    def greedy_action(self, obs: np.ndarray) -> int:
        return int(np.argmax(self.policy.predict(obs)))

    def save(self, path) -> None:
        policy_arrays = self.policy.parameters()
        value_arrays = self.value.parameters() if self.value is not None else []
        encoder_arrays = self.ae_encoder.parameters() if self.ae_encoder is not None else []
        tag = encode_tag(
            algo=self.algo,
            repr=self.repr_kind,
            reward=self.reward_kind,
            act=self.policy.hidden_activation,
            policy=len(policy_arrays),
            value=len(value_arrays),
            encoder=len(encoder_arrays),
            kseed=self.kplanes.seed if self.kplanes is not None else -1,
            kres=self.kplanes.resolution if self.kplanes is not None else 0,
            kfeat=self.kplanes.feature_dim if self.kplanes is not None else 0,
        )
        arrays = [self.norms.as_array()] + policy_arrays + value_arrays + encoder_arrays
        save_arrays(path, arrays, tag=tag, seed=self.seed)

    @staticmethod
    def load(path) -> "PolicyBundle":
        blob = load_arrays(path)
        fields = parse_tag(blob.tag)
        try:
            algo = fields["algo"]
            act = fields["act"]
            n_policy = int(fields["policy"])
            n_value = int(fields["value"])
            n_encoder = int(fields["encoder"])
        except KeyError as missing:
            raise ConfigurationError(f"{path}: not a policy bundle (missing {missing})")
        arrays = blob.arrays
        if len(arrays) != 1 + n_policy + n_value + n_encoder:
            raise ConfigurationError(f"{path}: array count does not match the header")
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
        kseed = int(fields.get("kseed", -1))
        kplanes = None
        if kseed >= 0:
            kplanes = KPlanesParams(kseed, int(fields["kres"]), int(fields["kfeat"]))
        return PolicyBundle(
            algo=algo,
            repr_kind=fields.get("repr", "custom"),
            reward_kind=fields.get("reward", "custom"),
            policy=policy,
            value=value,
            ae_encoder=encoder,
            kplanes=kplanes,
            norms=norms,
            seed=blob.seed,
        )


def bundle_for_env(algo: str, env, policy: Mlp, value: Mlp | None,
                   seed: int) -> PolicyBundle:
    """Bundle trained networks with the observation pipeline and reward kind
    of the environment they were trained on (``"custom"`` for an
    environment without ``observation`` or ``reward_spec``)."""
    observation = getattr(env, "observation", None)
    return PolicyBundle(
        algo=algo,
        repr_kind=getattr(observation, "kind", "custom"),
        reward_kind=getattr(getattr(env, "reward_spec", None), "kind", "custom"),
        policy=policy,
        value=value,
        ae_encoder=getattr(observation, "encoder", None),
        kplanes=getattr(observation, "params", None),
        norms=getattr(observation, "norms", StateNormalizers()),
        seed=seed,
    )
