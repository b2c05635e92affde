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

Every selection from an n-vector runs through one in-place ``np.partition``
helper, so callers that select for a block of queries from a reusable buffer
(jackknife+ and CV+) share the public operators' selection code, which
returns a zero as 0.0. When the n values fall into a few groups that share a
shift (CV+ with K folds has K), ``_SortedGroups`` sorts each group once and
selects for a whole block of shifts from the sorted groups by one
elimination, whatever the number of groups, without building the n-vector.
"""

from __future__ import annotations

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


# The most elements a blocked step holds at once: (breakpoint, row) pairs in
# the cross-conformal sweep, candidates in cv+'s buffer rows, (group, row)
# offers in a grouped selection, and predictions in a block of query rows. A
# value of 32 read 0.1 to 0.2 MB higher in peak RSS on the 500 x 20 scoring
# benchmark, where 2048 tests 4 breakpoints a block (2-vCPU Xeon VM, numpy 2.4).
_POINT_BLOCK = 2048


class _SortedGroups:
    """Order statistics of the candidates ``shift[g] +- v`` over G sorted groups.

    ``groups[g]`` holds group g's values in ascending order; together they
    hold n values. Each row of a block gives one shift per group and selects
    the k-th smallest candidate, computed with the same float operation as a
    buffer ``np.add``/``np.subtract`` of the shift and the value, so it equals
    ``_select_inplace`` on that n-vector bit for bit. Nothing of length n is
    built per block.

    Every group count is answered by elimination, the sorted-arrays selection
    of Frederickson & Johnson (1982). Order the candidates by value, then
    group. While k > 1, each group offers its s-th next candidate,
    s = (k - 2) // G + 1, or +inf if it has fewer left. At most s - 1 of any
    group's candidates precede the least offer, so it ranks at most
    1 + G(s - 1) <= k - 1: its group's next s candidates are passed over and
    k drops by s. If that group had fewer than s left, every offer is +inf,
    at most (G - 1)(s - 1) < k - s candidates below +inf remain, and the
    answer stays +inf. At k = 1 the answer is the least next candidate. One
    group passes over its k - 1 smallest in a single round.
    """

    def __init__(self, groups: list):
        self.groups = groups
        self.size = sum(g.size for g in groups)

    def select_rows(self, shifts: np.ndarray, subtract: bool, k: int) -> np.ndarray:
        """k-th smallest (1-based) of ``shift - v`` (``subtract``) or
        ``shift + v`` over every group's values v, for each row of the (q, G)
        ``shifts``; -inf when k < 1 and +inf when k > n, as
        :func:`_select_inplace`. Rows are eliminated together, in chunks of
        ``_POINT_BLOCK // G`` rows, so the (G, rows) working arrays stay
        bounded whatever q is."""
        if not 1 <= k <= self.size:
            return np.full(len(shifts), -math.inf if k < 1 else math.inf)
        chunk = max(1, _POINT_BLOCK // len(self.groups))
        if len(shifts) > chunk:
            return np.concatenate([self.select_rows(shifts[at:at + chunk], subtract, k)
                                   for at in range(0, len(shifts), chunk)])
        op = np.subtract if subtract else np.add
        # Each group's values in the order of its candidates, which ascend.
        ordered = [values[::-1] if subtract else values for values in self.groups]
        last = np.array([values.size - 1 for values in ordered])[:, None]
        rows = np.arange(len(shifts))
        passed = np.zeros((len(ordered), len(shifts)), dtype=np.intp)  # per group and row
        offers = np.empty(passed.shape)

        def offer(s):  # each group's s-th next candidate in every row, +inf past its end
            at = passed + (s - 1)
            clipped = np.minimum(at, last)
            for g, values in enumerate(ordered):
                op(shifts[:, g], values[clipped[g]], out=offers[g])
            offers[at > last] = math.inf
            return offers

        while k > 1:
            s = (k - 2) // len(ordered) + 1
            least = offer(s).argmin(axis=0)  # ties go to the lower group
            passed[least, rows] += s
            k -= s
        return offer(1).min(axis=0) + 0.0


def upper_index(n: int, alpha: float) -> int:
    """The 1-based order-statistic index ceil((1-alpha)(n+1)), computed exactly.

    May be 0 (alpha = 1) or n + 1 (alpha < 1/(n+1)); callers map those to
    -inf and +inf respectively.
    """
    p, q = _check_alpha(alpha)
    return -(-(q - p) * (int(_require_int("n", n, 0)) + 1) // q)


def lower_index(n: int, alpha: float) -> int:
    """The 1-based order-statistic index floor(alpha(n+1)), computed exactly."""
    p, q = _check_alpha(alpha)
    return p * (int(_require_int("n", n, 0)) + 1) // q


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
