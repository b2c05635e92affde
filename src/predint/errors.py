"""Exception types shared across the package, and the one wording of each
boundary rule: a setting ``name`` that fails a check below raises ConfigError
``{name} must be an integer`` / ``a real number`` / ``a sequence`` /
``a {kind}``, ``must be >= {low}``, ``must be finite`` (``and >= {low}``, or
``and > {low}``), ``must be in (0, 1)``, ``must hold {kind} entries`` (or ``hashable
entries``) or ``must not repeat an entry``, then ``, got {value}``.
"""

import math
import numbers

__all__ = ["PredintError", "ConfigError", "DataError"]


class PredintError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PredintError):
    """A parameter, option, or method combination is invalid."""


class DataError(PredintError):
    """Input data is missing, malformed, or out of contract."""


def _require_int(name: str, value, low=None):
    """``value`` itself if it is a Python or numpy integer (not a bool) and at
    least ``low`` when given, else a ConfigError naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _require_sequence(name: str, value, kind: type = object, distinct: bool = False) -> list:
    """The entries of ``value`` as a list if it is an iterable other than a
    string, each entry is a ``kind`` and, if ``distinct``, none repeats."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ConfigError(f"{name} must be a sequence, got {value!r}")
    entries = list(value)
    for entry in entries:
        if not isinstance(entry, kind):
            raise ConfigError(f"{name} must hold {kind.__name__} entries, got {entry!r}")
    if distinct:
        try:
            repeated = len(set(entries)) != len(entries)
        except TypeError:  # an unhashable entry
            raise ConfigError(f"{name} must hold hashable entries, got {entries}") from None
        if repeated:
            raise ConfigError(f"{name} must not repeat an entry, got {entries}")
    return entries


def _require_real(name: str, value):
    """``value`` itself if it is a real number (not a bool), else a
    ConfigError naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value


def _require_finite(name: str, value, low=None, strict: bool = False):
    """A real ``value`` itself if finite and at least ``low`` (above it if ``strict``)."""
    _require_real(name, value)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past float range
        finite = False
    if not finite or (
            low is not None and not (value > low if strict else value >= low)):
        bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
        raise ConfigError(f"{name} must be finite{bound}, got {value}")
    return value


def _require_fraction(name: str, value):
    """A real ``value`` itself if it lies strictly between 0 and 1."""
    if not 0 < _require_real(name, value) < 1:
        raise ConfigError(f"{name} must be in (0, 1), got {value}")
    return value


def _require_type(name: str, value, kind: type):
    """``value`` itself if it is a ``kind``, else a ConfigError naming ``name``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ConfigError(f"{name} must be {article} {kind.__name__}, got {value!r}")
    return value
