"""Experiment orchestration: metrics, configuration, the episode/grid
runner, and the command-line interface."""
