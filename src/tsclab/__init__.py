"""Self-contained lab for adaptive traffic-signal control.

A deterministic point-queue intersection simulator, several state
representations and reward formulations, small from-scratch neural agents
(policy-gradient, value-based, autoencoder), classical signal-timing
baselines, and a multi-seed experiment harness with a CLI.
"""

__version__ = "0.1.0"
