"""Exception types shared across the package, and the settings checks that
more than one settings class makes."""

import math
from dataclasses import fields

import numpy as np


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


def check_finite_fields(section: str, settings) -> None:
    """Raise :class:`ConfigurationError` naming ``<section>.<field>`` at the
    first field of the dataclass ``settings`` that holds NaN or an infinity;
    str and None values are skipped.  Run it before any other check: every
    ordering test passes on NaN."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if not (value is None or isinstance(value, str) or math.isfinite(value)):
            raise ConfigurationError(f"{section}.{f.name} must be finite")


def check_whole_seconds(name: str, value: float, least: int = 1) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a whole number of
    seconds, at least ``least``: the simulator ticks once a second.  NaN and
    the infinities fail too."""
    if not (value >= least and float(value).is_integer()):
        raise ConfigurationError(
            f"{name} must be a whole number of seconds, at least {least} s, got {value}")


def allocate(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A zeroed array of ``shape``, which the setting ``name`` sizes; a shape
    numpy cannot allocate raises :class:`ConfigurationError` naming it."""
    try:
        return np.zeros(shape, dtype)
    except (ValueError, MemoryError):
        raise ConfigurationError(f"{name} is too large: numpy cannot allocate {shape}") from None
