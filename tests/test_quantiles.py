"""The two corrected order-statistic quantile operators.

The upper quantile is the ceil((1-alpha)(n+1))-th smallest value, the lower
the floor(alpha(n+1))-th smallest, with +-inf on index overflow. Everything
here is checked against a literal sort-and-index reference that does its
index arithmetic in exact rational arithmetic, because the float version is
genuinely wrong on boundary cases (see test_index_arithmetic_is_exact).
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predint import ConfigError, lower_index, lower_quantile, upper_index, upper_quantile
from predint.quantiles import _SortedGroups


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


# Every kind of real level the index arithmetic reads as an integer ratio.
EXACT_LEVELS = [0, 1, 1 / 3, 0.1, 0.25, Fraction(2, 7), Decimal("0.1"), np.float32(0.1),
                np.int64(0)]


def exact(level) -> Fraction:
    """The exact value of ``level``; a float32 widens to a float exactly."""
    return Fraction(float(level) if isinstance(level, np.floating) else level)


@pytest.mark.parametrize("alpha", EXACT_LEVELS, ids=repr)
def test_indices_match_the_rational_formulas(alpha):
    for n in range(1, 61):
        assert upper_index(n, alpha) == math.ceil((1 - exact(alpha)) * (n + 1)), n
        assert lower_index(n, alpha) == math.floor(exact(alpha) * (n + 1)), n


def test_float32_levels_are_read_at_their_exact_value():
    # float32(0.1) is 0.100000001490116..., about 1.5e-9 above the double
    # 0.1: at n = 9 the indices agree, at n + 1 = 1e9 floor(alpha (n + 1))
    # does not.
    alpha = np.float32(0.1)
    assert (upper_index(9, alpha), lower_index(9, alpha)) == (9, 1)
    assert lower_index(10**9 - 1, alpha) == 100_000_001
    assert lower_index(10**9 - 1, 0.1) == 100_000_000


@pytest.mark.parametrize("bad_alpha", ["0.5", True, np.True_, 0.5 + 0j, math.inf,
                                       np.float32("nan"), Decimal("nan"), None], ids=repr)
def test_alpha_must_be_a_real_number(bad_alpha):
    upper_index(9, 1)  # a memoised 1 must not answer for True
    with pytest.raises(ConfigError, match="alpha must be a real number"):
        upper_index(9, bad_alpha)
    with pytest.raises(ConfigError, match="alpha must be a real number"):
        lower_quantile([1.0, 2.0], bad_alpha)


@pytest.mark.parametrize("bad_n", [[5], 5.0, True, "5"], ids=repr)
def test_n_must_be_an_integer(bad_n):
    # An unhashable n, such as a list, is a ConfigError like any other.
    for index in (upper_index, lower_index):
        with pytest.raises(ConfigError, match="n must be an integer"):
            index(bad_n, 0.1)


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


def buffer_select(values, group_of, shifts, subtract, k):
    """The partition path's order statistic, kept as the oracle: each row's
    group shift gathered into an n-vector, shifted by the row's value in
    place, partitioned. A zero is returned as 0.0: which of two equal zeros
    the partition places at k - 1 is arbitrary."""
    buf = shifts[group_of]
    (np.subtract if subtract else np.add)(buf, values, out=buf)
    if k < 1:
        return -math.inf
    if k > buf.size:
        return math.inf
    buf.partition(k - 1)
    return float(buf[k - 1]) + 0.0


class TestSortedGroups:
    """``_SortedGroups.select_rows`` on one row against the buffer-and-partition
    oracle at every k from 0 to n + 1, bit for bit (``float.hex`` tells -0.0
    from 0.0)."""

    @staticmethod
    def draw(n, g, values, shifts, seed):
        rng = np.random.default_rng(seed)
        # Unequal group sizes: group j is drawn with weight j + 1.
        weights = np.arange(1, g + 1) / (g * (g + 1) / 2)
        group_of = np.concatenate([np.arange(g), rng.choice(g, size=n - g, p=weights)])
        rng.shuffle(group_of)
        if values == "ties":  # small integers: long runs, many zeros
            vals = rng.integers(0, 4, size=n).astype(float)
        elif values == "zeros":  # half exact zeros, as parity's A = 0 rows
            vals = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.5)
        elif values == "rounding":  # shift + value rounds: thresholds miss by ulps
            vals = np.abs(rng.standard_normal(n)) * 1e-12 * (rng.random(n) < 0.7)
        else:  # signed residuals, as asymmetric specs use
            vals = rng.standard_normal(n)
        if shifts == "equal":
            per_group = np.full(g, 1.5)
        elif values == "rounding":
            per_group = rng.standard_normal(g) * 1e3
        else:
            per_group = rng.integers(-2, 3, size=g).astype(float)
        return vals, group_of, per_group

    @pytest.mark.parametrize("shifts", ["equal", "distinct"])
    @pytest.mark.parametrize("values", ["ties", "zeros", "rounding", "signed"])
    @pytest.mark.parametrize("g", [1, 2, 3, 10])
    @pytest.mark.parametrize("n", [12, 157])
    def test_matches_the_partition_oracle(self, n, g, values, shifts):
        vals, group_of, per_group = self.draw(n, g, values, shifts, seed=n * g)
        groups = _SortedGroups([np.sort(vals[group_of == j]) for j in range(g)])
        for subtract in (True, False):
            for k in range(n + 2):
                got = groups.select_rows(per_group[None], subtract, k)[0]
                want = buffer_select(vals, group_of, per_group, subtract, k)
                assert got.hex() == want.hex(), (subtract, k)

    @pytest.mark.parametrize(
        "subtract, shifts, groups",
        [(False, [-1.0, 0.0], [[1 + 2**-52], [1.2e-16]]),
         (True, [1.0, 0.0], [[1.0], [1e-16]]),
         (False, [-1.0, 0.0], [[1.0], [5e-17, 1e-16]])],
        ids=["add-lo", "subtract-lo", "add-hi"],
    )
    def test_a_rounded_threshold_is_corrected(self, subtract, shifts, groups):
        # Group 0's value sits exactly on the threshold fl(bound -+ shift) that
        # searchsorted uses for a bound taken from group 1's candidates, yet
        # its own candidate lies on the other side of the bound: above lo
        # (counting it at or below lo returns lo), or below hi (leaving it out
        # of the window loses the smallest candidate).
        shifts = np.array(shifts)
        values = np.concatenate(groups)
        group_of = np.repeat([0, 1], [len(g) for g in groups])
        sorted_groups = _SortedGroups([np.array(g) for g in groups])
        for k in range(1, values.size + 1):
            want = buffer_select(values, group_of, shifts, subtract, k)
            assert sorted_groups.select_rows(shifts[None], subtract, k)[0].hex() == want.hex(), k


# Shifts include both zeros, so candidates are -0.0 as well as 0.0, and
# 1e3-scale values, at which shift +- value rounds.
SHIFTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                   st.floats(-1e3, 1e3, allow_nan=False))
GROUP_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-13]),
                         st.floats(-1e3, 1e3, allow_nan=False))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.lists(GROUP_VALUES, min_size=1, max_size=12), min_size=1, max_size=2),
    st.lists(st.lists(SHIFTS, min_size=2, max_size=2), min_size=1, max_size=6),
    st.booleans(),
)
def test_block_select_matches_the_partition_oracle(groups, shift_rows, subtract):
    """``select_rows`` for one and two groups, which bisects every row at
    once, against the buffer oracle at every k from 0 to n + 1, bit for bit."""
    values = np.concatenate([np.array(g) for g in groups])
    group_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    shifts = np.array(shift_rows)[:, : len(groups)]
    sorted_groups = _SortedGroups([np.sort(np.array(g)) for g in groups])
    for k in range(values.size + 2):
        got = sorted_groups.select_rows(shifts, subtract, k)
        assert got.shape == (len(shifts),)
        for row, value in zip(shifts, got.tolist()):
            want = buffer_select(values, group_of, row, subtract, k)
            assert value.hex() == want.hex(), (k, row)


# Groups of one or two values beside groups of up to 16 run out mid-search;
# values and shifts near the largest float make candidates overflow to +-inf.
HUGE = st.sampled_from([1e308, 1.5e308, 1.7e308, -1.7e308])


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.one_of(st.lists(st.one_of(GROUP_VALUES, HUGE), min_size=1, max_size=2),
                       st.lists(st.one_of(GROUP_VALUES, HUGE), min_size=8, max_size=16)),
             min_size=3, max_size=8),
    st.lists(st.lists(st.one_of(SHIFTS, st.sampled_from([1e308, -1e308])), min_size=8, max_size=8),
             min_size=1, max_size=6),
    st.booleans(),
)
@example([[1.0], [1e308, 1.5e308, 1.7e308], [1.0]], [[0.0, 1e308, 0.0] + [0.0] * 5], False)
def test_elimination_matches_the_partition_oracle(groups, shift_rows, subtract):
    """``select_rows`` for three to eight groups, which eliminates in every row
    at once, against the buffer oracle at every k from 0 to n + 1, bit for
    bit. In the example an exhausted group's +inf stand-in ties the overflowed
    offers and is taken as the least offer; the answer is +inf."""
    values = np.concatenate([np.array(g) for g in groups])
    group_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    shifts = np.array(shift_rows)[:, : len(groups)]
    sorted_groups = _SortedGroups([np.sort(np.array(g)) for g in groups])
    with np.errstate(over="ignore"):
        for k in range(values.size + 2):
            got = sorted_groups.select_rows(shifts, subtract, k)
            assert got.shape == (len(shifts),)
            for row, value in zip(shifts, got.tolist()):
                want = buffer_select(values, group_of, row, subtract, k)
                assert value.hex() == want.hex(), (k, row)
