"""The two corrected order-statistic quantile operators.

The upper quantile is the ceil((1-alpha)(n+1))-th smallest value, the lower
the floor(alpha(n+1))-th smallest, with +-inf on index overflow. Everything
here is checked against a literal sort-and-index reference that does its
index arithmetic in exact rational arithmetic, because the float version is
genuinely wrong on boundary cases (see test_index_arithmetic_is_exact).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predint import ConfigError, lower_index, lower_quantile, upper_index, upper_quantile


def brute_upper(values, alpha):
    v = sorted(values)
    n = len(v)
    k = math.ceil((1 - Fraction(alpha)) * (n + 1))
    if k > n:
        return math.inf
    if k < 1:
        return -math.inf
    return float(v[k - 1])


def brute_lower(values, alpha):
    v = sorted(values)
    n = len(v)
    j = math.floor(Fraction(alpha) * (n + 1))
    if j < 1:
        return -math.inf
    if j > n:
        return math.inf
    return float(v[j - 1])


def test_worked_values():
    v = [3.0, 1.0, 2.0]
    # n = 3, alpha = 0.25: upper index ceil(0.75 * 4) = 3, lower floor(0.25 * 4) = 1.
    assert upper_quantile(v, 0.25) == 3.0
    assert lower_quantile(v, 0.25) == 1.0
    # alpha = 0.5: indices 2 and 2.
    assert upper_quantile(v, 0.5) == 2.0
    assert lower_quantile(v, 0.5) == 2.0


def test_index_arithmetic_is_exact():
    # The double closest to 1/3 lies strictly below it, so with n = 2 the
    # exact upper index is ceil((1 - alpha) * 3) = 3 and the quantile must
    # overflow to +inf. Rounding the same expression through floats lands on
    # exactly 2.0 and would silently hand back the largest value instead.
    alpha = 1 / 3
    assert math.ceil((1 - alpha) * 3) == 2  # the float shortcut is wrong
    assert math.ceil((1 - Fraction(alpha)) * 3) == 3
    assert upper_index(2, alpha) == 3
    assert lower_index(2, alpha) == 0
    assert upper_quantile([1.0, 2.0], alpha) == math.inf
    assert lower_quantile([1.0, 2.0], alpha) == -math.inf


def test_overflow_to_infinities():
    v = [1.0, 2.0, 3.0]
    # alpha < 1/(n+1): upper index 4 > n.
    assert upper_quantile(v, 0.2) == math.inf
    assert lower_quantile(v, 0.2) == -math.inf
    assert upper_quantile(v, 0.0) == math.inf
    assert lower_quantile(v, 0.0) == -math.inf
    # alpha = 1 underflows the other way.
    assert upper_quantile(v, 1.0) == -math.inf
    assert lower_quantile(v, 1.0) == math.inf


def test_index_endpoints():
    assert upper_index(5, 0.0) == 6
    assert upper_index(5, 1.0) == 0
    assert lower_index(5, 0.0) == 0
    assert lower_index(5, 1.0) == 6


def test_infinite_entries_are_ordinary_values():
    v = [-math.inf, 0.0, math.inf]
    assert upper_quantile(v, 0.25) == math.inf
    assert lower_quantile(v, 0.25) == -math.inf
    assert upper_quantile(v, 0.5) == 0.0


@pytest.mark.parametrize("bad_alpha", [-0.1, 1.1, math.nan, [0.1]])
def test_alpha_out_of_range(bad_alpha):
    with pytest.raises(ConfigError):
        upper_quantile([1.0], bad_alpha)
    with pytest.raises(ConfigError):
        lower_index(3, bad_alpha)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        upper_quantile([], 0.5)
    with pytest.raises(ConfigError):
        lower_quantile([1.0, math.nan], 0.5)
    with pytest.raises(ConfigError):
        upper_quantile([[1.0, 2.0]], 0.5)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
values_strategy = st.lists(finite_floats, min_size=1, max_size=40)
alpha_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, 0.1, 0.25, 0.5, 1 / 3, 2 / 7]),
)


@settings(deadline=None)
@given(values_strategy, alpha_strategy)
def test_matches_brute_force(values, alpha):
    assert upper_quantile(values, alpha) == brute_upper(values, alpha)
    assert lower_quantile(values, alpha) == brute_lower(values, alpha)


@settings(deadline=None)
@given(values_strategy, alpha_strategy)
def test_negation_identity_is_exact(values, alpha):
    neg = [-v for v in values]
    assert lower_quantile(values, alpha) == -upper_quantile(neg, alpha)
    assert upper_quantile(values, alpha) == -lower_quantile(neg, alpha)


@settings(deadline=None)
@given(values_strategy, alpha_strategy, alpha_strategy)
def test_monotone_in_alpha(values, a1, a2):
    lo, hi = sorted([a1, a2])
    # A larger miscoverage level can only pull the upper quantile down and
    # push the lower quantile up.
    assert upper_quantile(values, hi) <= upper_quantile(values, lo)
    assert lower_quantile(values, hi) >= lower_quantile(values, lo)


@settings(deadline=None)
@given(values_strategy, alpha_strategy)
def test_result_is_an_order_statistic_or_infinite(values, alpha):
    q = upper_quantile(values, alpha)
    assert math.isinf(q) or q in values


@settings(deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=20), alpha_strategy)
def test_permutation_invariant(values, alpha):
    shuffled = list(reversed(values))
    assert upper_quantile(values, alpha) == upper_quantile(shuffled, alpha)
    assert lower_quantile(values, alpha) == lower_quantile(shuffled, alpha)


def test_numpy_input_accepted():
    arr = np.array([5.0, 1.0, 9.0, 3.0])
    assert upper_quantile(arr, 0.4) == 5.0  # ceil(0.6 * 5) = 3rd smallest
