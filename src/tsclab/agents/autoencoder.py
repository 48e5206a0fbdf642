"""Autoencoder compressing the 19-component state to a small latent.

The encoder half becomes a frozen observation transform for the policy
trainer.  Training data comes from the fixed-time controller under randomly
rescaled flows, so the learned representation does not depend on any policy
being trained on top of it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..envs import run_to_decision
from ..errors import ConfigurationError
from ..neural import Adam, Mlp
from ..sim import (FlowProfile, IntersectionLayout, N_LANES, PhasePlan,
                   apply_action, new_simulation)
from ..sim import step  # noqa: F401  (unused; perfbench/spans.py wraps it by this name)
from ..staterep import EXPANDED_DIM, StateNormalizers, expanded_state
from ..weights import encode_tag, load_arrays, mlp_from_arrays, parse_tag, save_arrays

logger = logging.getLogger(__name__)

CANONICAL_LATENTS = (4, 8, 16, 19, 32)
_HIDDEN = 32


@dataclass
class AeResult:
    encoder: Mlp
    decoder: Mlp
    final_mse: float
    mse_history: list  # index 0 is the untrained (epoch-0) value


def reconstruction_mse(encoder: Mlp, decoder: Mlp, states: np.ndarray) -> float:
    """Mean squared reconstruction norm over a buffer."""
    x = np.asarray(states, dtype=np.float64)
    err = decoder.predict(encoder.predict(x)) - x
    return float(np.mean(np.sum(err * err, axis=1)))


def train_autoencoder(states: np.ndarray, k: int, epochs: int = 40, lr: float = 1e-3,
                      seed: int = 0, batch_size: int = 128) -> AeResult:
    """Minimize mean squared reconstruction error with minibatch updates.

    ``epochs = 0`` returns the untrained pair with its buffer MSE.  Latent
    sizes outside the canonical set train fine but are logged as unusual.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != EXPANDED_DIM or x.shape[0] < 1:
        raise ConfigurationError(f"state buffer must be N x {EXPANDED_DIM}")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ConfigurationError(f"latent size must be a positive integer, got {k!r}")
    if epochs < 0:
        raise ConfigurationError("epochs must be non-negative")
    if k not in CANONICAL_LATENTS:
        logger.warning("latent size %d outside the benchmarked set %s",
                       k, CANONICAL_LATENTS)

    ss = np.random.SeedSequence(seed)
    s_enc, s_dec, s_shuffle = ss.spawn(3)
    encoder = Mlp([EXPANDED_DIM, _HIDDEN, int(k)], "relu", seed=s_enc)
    decoder = Mlp([int(k), _HIDDEN, EXPANDED_DIM], "relu", seed=s_dec)
    opt = Adam(encoder.parameters() + decoder.parameters(), lr)
    shuffle_rng = np.random.Generator(np.random.PCG64(s_shuffle))

    history = [reconstruction_mse(encoder, decoder, x)]
    n = x.shape[0]
    for _epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = x[order[start:start + batch_size]]
            b = batch.shape[0]
            z = encoder.forward(batch)
            recon = decoder.forward(z)
            err = recon - batch
            dec_grads, dz = decoder.backward((2.0 / b) * err)
            enc_grads, _ = encoder.backward(dz)
            opt.step(encoder.gradient_arrays(enc_grads)
                     + decoder.gradient_arrays(dec_grads))
        history.append(reconstruction_mse(encoder, decoder, x))
    return AeResult(encoder=encoder, decoder=decoder,
                    final_mse=history[-1], mse_history=history)


def collect_state_buffer(n_states: int, flows: FlowProfile, seed: int = 0,
                         layout: IntersectionLayout = IntersectionLayout(),
                         plan: PhasePlan = PhasePlan(),
                         norms: StateNormalizers = StateNormalizers(),
                         scale_range: tuple = (0.5, 1.5),
                         episode_horizon_s: int = 7200) -> np.ndarray:
    """Record decision-point states under fixed-time control.

    Each episode rescales every lane's arrival rates by an independent
    uniform factor from ``scale_range`` and simulates ``episode_horizon_s``
    seconds; decision-point states accumulate until ``n_states`` are
    collected.
    """
    if n_states < 1:
        raise ConfigurationError("need at least one state")
    ss = np.random.SeedSequence(seed)
    states = np.empty((n_states, EXPANDED_DIM), dtype=np.float64)
    filled = 0
    while filled < n_states:
        s_scale, s_sim = ss.spawn(2)
        scale_rng = np.random.Generator(np.random.PCG64(s_scale))
        factors = scale_rng.uniform(scale_range[0], scale_range[1], size=N_LANES)
        sim = new_simulation(layout, plan, flows.scaled(factors), seed=s_sim)
        while run_to_decision(sim, int(episode_horizon_s)):
            states[filled] = expanded_state(sim, norms)
            filled += 1
            if filled >= n_states:
                return states
            apply_action(sim, 1)
    return states


def save_autoencoder(result: AeResult, path, seed: int = 0) -> None:
    enc = result.encoder.parameters()
    dec = result.decoder.parameters()
    tag = encode_tag(kind="autoencoder", latent=result.encoder.layer_sizes[-1],
                     encoder=len(enc), decoder=len(dec), act="relu")
    save_arrays(path, enc + dec, tag=tag, seed=seed)


def load_autoencoder(path) -> tuple[Mlp, Mlp]:
    blob = load_arrays(path)
    fields = parse_tag(blob.tag)
    if fields.get("kind") != "autoencoder":
        raise ConfigurationError(f"{path}: not an autoencoder file")
    n_enc = int(fields["encoder"])
    encoder = mlp_from_arrays(blob.arrays[:n_enc], fields.get("act", "relu"))
    decoder = mlp_from_arrays(blob.arrays[n_enc:], fields.get("act", "relu"))
    return encoder, decoder
