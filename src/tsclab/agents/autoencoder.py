"""Autoencoder compressing the 19-component state to a small latent.

The encoder half becomes a frozen observation transform for the policy
trainer.  Training data comes from the fixed-time controller under randomly
rescaled flows, so the learned representation does not depend on any policy
being trained on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..envs import run_to_decision
from ..errors import ConfigurationError, allocate, check_non_negative
from ..neural import Adam, Mlp, share_parameters
from ..sim import (ACTION_CONTINUE, FlowProfile, IntersectionLayout, N_LANES, PhasePlan,
                   SimState, apply_action)
from ..sim import step  # noqa: F401  (unused; perfbench/spans.py wraps it by this name)
from ..staterep import EXPANDED_DIM, expanded_state
from ..weights import encode_tag, load_arrays, mlp_from_arrays, read_fields, save_arrays

_HIDDEN = 32
_MINIBATCH = 128


@dataclass
class AeResult:
    """A trained encoder/decoder pair and its reconstruction error over the
    whole training buffer, measured before the first epoch (``initial_mse``)
    and after the last (``final_mse``; the same value when ``epochs = 0``)."""

    encoder: Mlp
    decoder: Mlp
    initial_mse: float
    final_mse: float


def reconstruction_mse(encoder: Mlp, decoder: Mlp, states: np.ndarray) -> float:
    """Mean squared reconstruction norm over a buffer.

    The buffer runs through the networks one training minibatch of rows at
    a time, so the pass allocates one block's layers plus one sum per row,
    not every layer for the whole buffer; the mean is taken once, over all
    the row sums."""
    x = np.asarray(states, dtype=np.float64)
    row_sums = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _MINIBATCH):
        rows = x[start:start + _MINIBATCH]
        err = decoder.predict(encoder.predict(rows))
        err -= rows
        err *= err
        np.sum(err, axis=1, out=row_sums[start:start + _MINIBATCH])
    return float(np.mean(row_sums))


def check_training_settings(epochs: int, lr: float) -> None:
    """Reject an epoch count or learning rate that :func:`train_autoencoder`
    cannot honour, before any state is collected."""
    if epochs < 0:
        raise ConfigurationError("epochs must be non-negative")
    check_non_negative("learning rate", lr)


def untrained_autoencoder(k: int, seed: int = 0) -> tuple[Mlp, Mlp, np.random.Generator]:
    """What :func:`train_autoencoder` starts from: the encoder and decoder
    of latent size ``k`` and the epoch shuffler, from ``SeedSequence(seed)``'s
    first three children.  Raises :class:`ConfigurationError` for a ``k``
    that is not a positive integer or is too large to allocate."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ConfigurationError(f"latent size must be a positive integer, got {k!r}")
    s_enc, s_dec, s_shuffle = np.random.SeedSequence(seed).spawn(3)
    return (Mlp([EXPANDED_DIM, _HIDDEN, int(k)], "relu", seed=s_enc),
            Mlp([int(k), _HIDDEN, EXPANDED_DIM], "relu", seed=s_dec),
            np.random.Generator(np.random.PCG64(s_shuffle)))


def train_autoencoder(states: np.ndarray, untrained: tuple, epochs: int = 40,
                      lr: float = 1e-3) -> AeResult:
    """Minimize mean squared reconstruction error with minibatch updates,
    training :func:`untrained_autoencoder`'s networks in place.

    ``epochs = 0`` returns the untrained pair with its buffer MSE.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != EXPANDED_DIM or x.shape[0] < 1:
        raise ConfigurationError(f"state buffer must be N x {EXPANDED_DIM}")
    check_training_settings(epochs, lr)

    encoder, decoder, shuffle_rng = untrained
    # one parameter and one gradient vector for both networks, so each
    # minibatch makes one optimizer pass
    params, grads = share_parameters(encoder, decoder)
    opt = Adam(params, lr)

    initial_mse = reconstruction_mse(encoder, decoder, x)
    n = x.shape[0]
    for _epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, _MINIBATCH):
            batch = x[order[start:start + _MINIBATCH]]
            b = batch.shape[0]
            z = encoder.forward(batch)
            recon = decoder.forward(z)
            err = recon - batch
            err *= 2.0 / b
            _, dz = decoder.backward(err)
            encoder.backward(dz, input_grad=False)
            opt.step(grads)
    final_mse = reconstruction_mse(encoder, decoder, x) if epochs else initial_mse
    return AeResult(encoder=encoder, decoder=decoder,
                    initial_mse=initial_mse, final_mse=final_mse)


def collect_state_buffer(n_states: int, flows: FlowProfile, seed: int = 0,
                         layout: IntersectionLayout = IntersectionLayout(),
                         plan: PhasePlan = PhasePlan(), horizon_s: int = 7200) -> np.ndarray:
    """Record decision-point states under fixed-time control.

    Each episode rescales every lane's arrival rates by an independent
    uniform factor from [0.5, 1.5) and simulates ``horizon_s``, which must
    exceed the plan's longest cycle; decision-point states (cycle count over
    the default ``cycles_max``) accumulate until ``n_states`` are collected.
    """
    if n_states < 1:
        raise ConfigurationError("need at least one state")
    plan.check_horizon(horizon_s)
    states = allocate("the state buffer", (n_states, EXPANDED_DIM))
    ss = np.random.SeedSequence(seed)
    filled = 0
    while filled < n_states:
        s_scale, s_sim = ss.spawn(2)
        scale_rng = np.random.Generator(np.random.PCG64(s_scale))
        factors = scale_rng.uniform(0.5, 1.5, size=N_LANES)
        sim = SimState(layout, plan, flows.scaled(factors), s_sim)
        while run_to_decision(sim, horizon_s):
            states[filled] = expanded_state(sim)
            filled += 1
            if filled >= n_states:
                return states
            apply_action(sim, ACTION_CONTINUE)
    return states


def _header(encoder: Mlp, decoder: Mlp) -> str:
    """The tag of an autoencoder file; :func:`load_autoencoder` accepts a
    file only if the networks it rebuilds give back that tag."""
    return encode_tag(kind="autoencoder", latent=encoder.layer_sizes[-1],
                      encoder=len(encoder.parameters()),
                      decoder=len(decoder.parameters()), act=encoder.hidden_activation)


def save_autoencoder(result: AeResult, path, seed: int = 0) -> None:
    save_arrays(path, result.encoder.parameters() + result.decoder.parameters(),
                tag=_header(result.encoder, result.decoder), seed=seed)


def load_autoencoder(path) -> tuple[Mlp, Mlp]:
    """Read an encoder/decoder pair; a file that does not parse, or whose
    header is not the one saving the pair writes, raises
    :class:`ConfigurationError`."""
    blob = load_arrays(path)
    fields = read_fields(path, blob.tag, kind=str, encoder=int)
    if fields["kind"] != "autoencoder":
        raise ConfigurationError(f"{path}: not an autoencoder file")
    # relu, as train_autoencoder builds them and a policy bundle reloads
    # its encoder; the header check refuses a file that says otherwise
    encoder = mlp_from_arrays(blob.arrays[:fields["encoder"]], "relu")
    decoder = mlp_from_arrays(blob.arrays[fields["encoder"]:], "relu")
    if _header(encoder, decoder) != blob.tag:
        raise ConfigurationError(f"{path}: header does not describe the networks it holds")
    return encoder, decoder
