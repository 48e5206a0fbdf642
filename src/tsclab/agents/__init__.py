"""Learning algorithms: PPO, the state autoencoder, and a DQN baseline."""

from .autoencoder import (AeResult, CANONICAL_LATENTS, collect_state_buffer,
                          load_autoencoder, reconstruction_mse, save_autoencoder,
                          train_autoencoder)
from .bundle import PolicyBundle, TrainLogRow, TrainResult
from .dqn import DqnConfig, ReplayBuffer, epsilon_at, train_dqn
from .ppo import (MiniBatch, PpoConfig, clipped_objective, compute_gae,
                  normalize_advantages, ppo_surrogate, train_ppo)

__all__ = [
    "AeResult", "CANONICAL_LATENTS", "collect_state_buffer", "load_autoencoder",
    "reconstruction_mse", "save_autoencoder", "train_autoencoder",
    "PolicyBundle", "TrainLogRow", "TrainResult",
    "DqnConfig", "ReplayBuffer", "epsilon_at", "train_dqn",
    "MiniBatch", "PpoConfig", "clipped_objective", "compute_gae",
    "normalize_advantages", "ppo_surrogate", "train_ppo",
]
