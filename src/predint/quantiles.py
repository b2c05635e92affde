"""Finite-sample-corrected empirical quantiles on the extended real line.

Given n values, the upper quantile at level alpha is the
ceil((1-alpha)(n+1))-th smallest value and the lower quantile the
floor(alpha(n+1))-th smallest. The (n+1) correction makes the operators
conservative for exchangeable data of size n plus one unseen point. When the
index overflows past n the upper quantile is +inf; when it underflows past 1
the lower quantile is -inf, so both operators are total for alpha in [0, 1].

Index arithmetic is exact: alpha is read as the integer ratio p/q of its
exact value, and the indices are integer ceil/floor divisions,
-(-(q - p)(n + 1) // q) and p(n + 1) // q. That keeps boundary cases honest
(with binary floats, ceil(0.9 * 10) evaluates to 10, while the exact index for
alpha = 0.1, n = 9 is 9). Exactness also guarantees the identity

    lower_quantile(v, alpha) == -upper_quantile(-v, alpha)

holds bitwise, not merely approximately.

Indices are memoised per (n, alpha), and every selection runs through one
in-place ``np.partition`` helper, so callers that select for a block of
queries from a reusable buffer (jackknife+ and CV+) share the public
operators' selection code, which returns a zero as 0.0. When the n values
fall into a few groups that share a shift (CV+ with K folds has K),
``_SortedGroups`` sorts each group once and selects from the shifted groups
without building the n-vector.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers

import numpy as np

from .errors import ConfigError, _require_int

__all__ = ["upper_quantile", "lower_quantile", "upper_index", "lower_index"]


def _exact_ratio(level, name: str = "alpha") -> tuple[int, int]:
    """``(p, q)`` with q > 0 and p / q exactly the real number ``level``.

    Rationals (Python and numpy integers, ``fractions``) give their numerator
    and denominator; float, numpy floating and ``Decimal`` their
    ``as_integer_ratio()``. A bool, string, complex, NaN or infinity is a
    ConfigError naming ``name``.
    """
    if not isinstance(level, bool):
        if isinstance(level, numbers.Rational):
            return int(level.numerator), int(level.denominator)
        as_ratio = getattr(level, "as_integer_ratio", None)
        if as_ratio is not None:
            try:
                p, q = as_ratio()
            except (ValueError, OverflowError):  # NaN or an infinity
                pass
            else:
                return int(p), int(q)
    raise ConfigError(f"{name} must be a real number, got {level!r}")


def _check_alpha(alpha, name: str = "alpha") -> tuple[int, int]:
    """The exact ratio ``(p, q)`` of a level in [0, 1], else a ConfigError."""
    p, q = _exact_ratio(alpha, name)
    if not 0 <= p <= q:
        raise ConfigError(f"{name} must be in [0, 1], got {alpha!r}")
    return p, q


def _check_values(values) -> np.ndarray:
    """A fresh float copy of ``values``, free to partition in place."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"values must be numbers: {exc}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("values must be a non-empty one-dimensional sequence")
    if np.isnan(arr).any():
        raise ConfigError("values must not contain NaN")
    return arr


@functools.lru_cache(maxsize=1024, typed=True)
def _memo_indices(n: int, alpha) -> tuple[int, int]:
    # A failed check raises and stores nothing, so the memo holds validated
    # levels only. Keys are typed, so True never hits the entry of 1; equal
    # keys of one type have equal exact values.
    p, q = _check_alpha(alpha)
    if _require_int("n", n) < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    m = int(n) + 1
    return -(-(q - p) * m // q), p * m // q


def _indices(n: int, alpha) -> tuple[int, int]:
    """(upper, lower) 1-based order-statistic indices at level alpha."""
    try:
        hash(alpha)
    except TypeError:  # unhashable, so not a real number
        raise ConfigError(f"alpha must be a real number, got {alpha!r}") from None
    return _memo_indices(n, alpha)


def _select_inplace(buf: np.ndarray, k: int):
    """The k-th smallest entry of ``buf`` (1-based), or of each row of a 2-D
    ``buf`` as an array, partitioning it in place; -inf when k < 1 and +inf
    when k exceeds a row's length. A zero comes back as 0.0 (``+ 0.0``), as
    which of two equal zeros a partition puts at k - 1 is arbitrary."""
    if k < 1:
        return -math.inf
    if k > buf.shape[-1]:
        return math.inf
    buf.partition(k - 1)
    return buf[:, k - 1] + 0.0 if buf.ndim == 2 else float(buf[k - 1]) + 0.0


def _first_true(values: np.ndarray, guess: int, holds) -> int:
    """First index of sorted ``values`` at which ``holds`` is true, for a
    predicate that is false and then true along them.

    ``guess`` comes from ``searchsorted`` on a rounded threshold, so it may be
    off by the few values that rounding misplaces. Its two neighbours decide,
    and only a wrong guess is bisected; equal values are never walked.
    """
    if guess < values.size and not holds(float(values[guess])):
        return bisect.bisect_left(values, True, guess + 1, values.size, key=holds)
    if guess > 0 and holds(float(values[guess - 1])):
        return bisect.bisect_left(values, True, 0, guess - 1, key=holds)
    return guess


class _SortedGroups:
    """Order statistics of the candidates ``shift[g] +- v`` over G sorted groups.

    ``groups[g]`` holds group g's values in ascending order; together they
    hold n values. A query gives one shift per group and selects the k-th
    smallest candidate, computed with the same float operation as a buffer
    ``np.add``/``np.subtract`` of the shift and the value, so it equals
    ``_select_inplace`` on that n-vector bit for bit. Nothing of length n is
    built per query.

    Every B-th value of each group (B = isqrt(n / 3G)) forms a skeleton.
    Each group holds fewer than B values between consecutive skeleton values,
    and before its first or after its last, so the r-th smallest shifted
    skeleton value has at least (r - G)B candidates at or below it and fewer
    than (r - 1 + G)B strictly below it. The (ceil(k/B) + G)-th is therefore
    an upper bound ``hi`` on the answer and the (floor(k/B) + 1 - G)-th a
    lower bound ``lo``. Exact counts of the candidates at or below ``lo`` and
    below ``hi`` settle ties at either bound; otherwise the answer lies among
    the fewer than 3GB candidates strictly between them.
    """

    def __init__(self, groups: list):
        self.groups = groups
        self.size = sum(g.size for g in groups)
        self.step = max(1, math.isqrt(self.size // (3 * len(groups))))
        skeleton = [g[self.step - 1 :: self.step] for g in groups]
        self.skeleton_sizes = [s.size for s in skeleton]
        self.skeleton = np.concatenate(skeleton)

    def select(self, shifts: np.ndarray, subtract: bool, k: int) -> float:
        """k-th smallest (1-based) of ``shifts[g] - v`` (``subtract``) or
        ``shifts[g] + v`` over every group's values v; -inf when k < 1 and
        +inf when k > n, as :func:`_select_inplace`."""
        if k < 1:
            return -math.inf
        if k > self.size:
            return math.inf
        op = np.subtract if subtract else np.add
        step, num = self.step, len(self.groups)
        skeleton = np.repeat(shifts, self.skeleton_sizes)
        op(skeleton, self.skeleton, out=skeleton)
        lo = _select_inplace(skeleton, k // step + 1 - num)
        hi = _select_inplace(skeleton, -(-k // step) + num)
        below, parts = 0, []
        for values, p in zip(self.groups, shifts.tolist()):
            m = values.size
            # a = candidates <= lo and b = candidates < hi in this group; with
            # subtraction the candidates fall as the values rise.
            if subtract:
                a = m - _first_true(values, int(values.searchsorted(p - lo, "left")),
                                    lambda v: p - v <= lo)
                b = m - _first_true(values, int(values.searchsorted(p - hi, "right")),
                                    lambda v: p - v < hi)
                parts.append(values[m - b : m - a])
            else:
                a = _first_true(values, int(values.searchsorted(lo - p, "right")),
                                lambda v: p + v > lo)
                b = _first_true(values, int(values.searchsorted(hi - p, "left")),
                                lambda v: p + v >= hi)
                parts.append(values[a:b])
            below += a
        if below >= k:
            return lo
        between = np.repeat(shifts, [part.size for part in parts])
        if below + between.size < k:
            return hi
        op(between, np.concatenate(parts), out=between)
        return _select_inplace(between, k - below)

    def select_rows(self, shifts: np.ndarray, subtract: bool, k: int) -> np.ndarray:
        """:meth:`select` for each row of the (q, G) ``shifts``, all at once
        for G <= 2 and row by row otherwise. Each group's candidates are
        monotone in its values, so with G = 2 a row's k smallest are group
        0's i smallest and group 1's k - i smallest for the least i at which
        group 1's (k - i)-th is not above group 0's (i + 1)-th; that i is
        bisected in every row together."""
        if len(self.groups) > 2 or not 1 <= k <= self.size:
            return np.array([self.select(row, subtract, k) for row in shifts], dtype=float)
        op = np.subtract if subtract else np.add

        def candidate(g, i):  # each row's (i + 1)-th smallest in group g, i clipped
            values = self.groups[g]
            i = np.clip(i, 0, values.size - 1)
            return op(shifts[:, g], values[values.size - 1 - i if subtract else i])

        if len(self.groups) == 1:
            return candidate(0, k - 1) + 0.0
        lo = np.full(len(shifts), max(0, k - self.groups[1].size))
        hi = np.full(len(shifts), min(k, self.groups[0].size))
        for _ in range(int(hi[0] - lo[0]).bit_length()):
            mid = (lo + hi) // 2
            above = candidate(1, k - 1 - mid) > candidate(0, mid)
            lo, hi = np.where(above & (lo < hi), mid + 1, lo), np.where(above, hi, mid)
        top = np.where(lo > 0, candidate(0, lo - 1), -math.inf)
        return np.maximum(top, np.where(lo < k, candidate(1, k - 1 - lo), -math.inf)) + 0.0


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
