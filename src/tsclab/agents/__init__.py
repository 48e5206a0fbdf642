"""Learning algorithms: PPO, the state autoencoder, and a DQN baseline."""
