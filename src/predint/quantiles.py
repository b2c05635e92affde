"""Finite-sample-corrected empirical quantiles on the extended real line.

Given n values, the upper quantile at level alpha is the
ceil((1-alpha)(n+1))-th smallest value and the lower quantile the
floor(alpha(n+1))-th smallest. The (n+1) correction makes the operators
conservative for exchangeable data of size n plus one unseen point. When the
index overflows past n the upper quantile is +inf; when it underflows past 1
the lower quantile is -inf, so both operators are total for alpha in [0, 1].

Index arithmetic is exact: alpha is converted to a Fraction before the
ceil/floor, which keeps boundary cases honest (with binary floats,
ceil(0.9 * 10) evaluates to 10, while the exact index for alpha = 0.1, n = 9
is 9). Exactness also guarantees the identity

    lower_quantile(v, alpha) == -upper_quantile(-v, alpha)

holds bitwise, not merely approximately.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError

__all__ = ["upper_quantile", "lower_quantile", "upper_index", "lower_index"]


def _check_alpha(alpha: float) -> Fraction:
    try:
        frac = Fraction(alpha)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"alpha must be a real number, got {alpha!r}") from exc
    if not 0 <= frac <= 1:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha!r}")
    return frac


def _check_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("values must be a non-empty one-dimensional sequence")
    if np.isnan(arr).any():
        raise ConfigError("values must not contain NaN")
    return arr


def upper_index(n: int, alpha: float) -> int:
    """The 1-based order-statistic index ceil((1-alpha)(n+1)), computed exactly.

    May be 0 (alpha = 1) or n + 1 (alpha < 1/(n+1)); callers map those to
    -inf and +inf respectively.
    """
    return math.ceil((1 - _check_alpha(alpha)) * (n + 1))


def lower_index(n: int, alpha: float) -> int:
    """The 1-based order-statistic index floor(alpha(n+1)), computed exactly."""
    return math.floor(_check_alpha(alpha) * (n + 1))


def upper_quantile(values, alpha: float) -> float:
    """ceil((1-alpha)(n+1))-th smallest of ``values``; +inf on index overflow.

    Parameters
    ----------
    values : array-like of shape (n,)
        Sample values. NaN is rejected; +-inf entries are permitted and sort
        to the ends as usual.
    alpha : float
        Miscoverage level in [0, 1].
    """
    arr = _check_values(values)
    k = upper_index(arr.size, alpha)
    if k > arr.size:
        return math.inf
    if k < 1:
        return -math.inf
    return float(np.partition(arr, k - 1)[k - 1])


def lower_quantile(values, alpha: float) -> float:
    """floor(alpha(n+1))-th smallest of ``values``; -inf on index underflow.

    Mirror image of :func:`upper_quantile`:
    ``lower_quantile(v, a) == -upper_quantile(-v, a)`` exactly.
    """
    arr = _check_values(values)
    j = lower_index(arr.size, alpha)
    if j < 1:
        return -math.inf
    if j > arr.size:
        return math.inf
    return float(np.partition(arr, j - 1)[j - 1])
