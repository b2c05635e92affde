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

Indices are memoised per (n, alpha), and every selection runs through one
in-place ``np.partition`` helper, so callers that stream many queries
through a reusable buffer (jackknife+ and CV+) share the public operators'
selection code.
"""

from __future__ import annotations

import functools
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
    """A fresh float copy of ``values``, free to partition in place."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("values must be a non-empty one-dimensional sequence")
    if np.isnan(arr).any():
        raise ConfigError("values must not contain NaN")
    return arr


@functools.lru_cache(maxsize=1024)
def _memo_indices(n: int, alpha) -> tuple[int, int]:
    # A failed check raises and stores nothing, so the memo holds validated
    # levels only. Equal keys have equal exact values: Python compares int,
    # float, Fraction and Decimal exactly.
    frac = _check_alpha(alpha)
    return math.ceil((1 - frac) * (n + 1)), math.floor(frac * (n + 1))


def _indices(n: int, alpha) -> tuple[int, int]:
    """(upper, lower) 1-based order-statistic indices at level alpha."""
    try:
        hash(alpha)
    except TypeError:  # unhashable, so not a number Fraction accepts
        raise ConfigError(f"alpha must be a real number, got {alpha!r}") from None
    return _memo_indices(n, alpha)


def _select_inplace(buf: np.ndarray, k: int) -> float:
    """The k-th smallest entry of ``buf`` (1-based), partitioning it in place;
    -inf when k < 1 and +inf when k > buf.size."""
    if k < 1:
        return -math.inf
    if k > buf.size:
        return math.inf
    buf.partition(k - 1)
    return float(buf[k - 1])


def upper_index(n: int, alpha: float) -> int:
    """The 1-based order-statistic index ceil((1-alpha)(n+1)), computed exactly.

    May be 0 (alpha = 1) or n + 1 (alpha < 1/(n+1)); callers map those to
    -inf and +inf respectively.
    """
    return _indices(n, alpha)[0]


def lower_index(n: int, alpha: float) -> int:
    """The 1-based order-statistic index floor(alpha(n+1)), computed exactly."""
    return _indices(n, alpha)[1]


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
    return _select_inplace(arr, upper_index(arr.size, alpha))


def lower_quantile(values, alpha: float) -> float:
    """floor(alpha(n+1))-th smallest of ``values``; -inf on index underflow.

    Mirror image of :func:`upper_quantile`:
    ``lower_quantile(v, a) == -upper_quantile(-v, a)`` exactly.
    """
    arr = _check_values(values)
    return _select_inplace(arr, lower_index(arr.size, alpha))
