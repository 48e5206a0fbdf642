"""Exception types shared across the package, and the one finite-number check."""

import math


class ConfigurationError(ValueError):
    """Raised when a configuration object or file is internally inconsistent."""


class ContractViolation(RuntimeError):
    """Raised when an operation is invoked outside its stated preconditions."""


class DivergenceError(RuntimeError):
    """Raised when a training run produces non-finite or runaway quantities."""


def check_non_negative(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigurationError(f"{name} must be finite and non-negative, got {value!r}")
