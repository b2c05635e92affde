"""Exception types shared across the package."""

import numbers

__all__ = ["PredintError", "ConfigError", "DataError"]


class PredintError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PredintError):
    """A parameter, option, or method combination is invalid."""


class DataError(PredintError):
    """Input data is missing, malformed, or out of contract."""


def _require_int(name: str, value):
    """``value`` itself if it is a Python or numpy integer (not a bool), else a
    ConfigError naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _require_sequence(name: str, value, kind: type = object) -> list:
    """The entries of ``value`` as a list if it is an iterable other than a
    string and each entry is a ``kind``, else a ConfigError naming ``name``."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ConfigError(f"{name} must be a sequence, got {value!r}")
    entries = list(value)
    for entry in entries:
        if not isinstance(entry, kind):
            raise ConfigError(f"{name} must hold {kind.__name__} entries, got {entry!r}")
    return entries


def _require_real(name: str, value):
    """``value`` itself if it is a real number (not a bool), else a
    ConfigError naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value
