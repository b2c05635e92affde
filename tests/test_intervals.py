"""Interval and set constructions against hand-computed oracles.

The running example is the 3-row sample y = (0, 0, 3) with the training-mean
regressor at alpha = 0.25, for which every construction can be worked out on
paper:

    full mean 1, in-sample |residuals| (1, 1, 2)        -> naive     [-1, 3]
    leave-one-out means (1.5, 1.5, 0), |resid| (1.5, 1.5, 3)
        around the full fit                              -> jackknife [-2, 4]
        shifted by their own residuals                   -> jackknife+ [-3, 3]
        around the extreme LOO predictions               -> minmax    [-3, 4.5]
"""

import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predint.experiments
import predint.intervals
import predint.regressors
from predint import (
    KNN,
    METHOD_TOKENS,
    ConfigError,
    ConstantMean,
    DataError,
    Dataset,
    GridSpec,
    IntervalSpec,
    LooCache,
    Memorizer,
    MethodSpec,
    MinNormOLS,
    ParityAdversary,
    PredictionInterval,
    PredictionSet,
    Ridge,
    SplitSpec,
    build_loo_cache,
    canonical_order,
    cross_conformal_set,
    cv_plus,
    derive_seed,
    evaluate_methods,
    full_conformal_set,
    gen_gaussian_linear,
    gen_pathological_abc,
    jackknife,
    jackknife_minmax,
    jackknife_plus,
    lower_quantile,
    upper_quantile,
)
from predint.intervals import _POINT_BLOCK, _Block, _cv_plus_block
from helpers import CountingRegressor, derive_rng

MEAN = ConstantMean()
X_PROBE = np.array([1.0])


@pytest.fixture
def worked():
    return Dataset([[0.0], [1.0], [2.0]], [0.0, 0.0, 3.0])


@pytest.fixture
def worked_cache(worked):
    return build_loo_cache(worked, MEAN)


def endpoints(iv):
    return (iv.lower, iv.upper)


def evaluated(train, token, spec, seed=0):
    """The object ``evaluate_methods`` builds for ``token`` at X_PROBE: naive
    and split have no other public builder."""
    return evaluate_methods(train, [X_PROBE], MEAN, [MethodSpec(token)], [spec], seed)[0][0][0]


class TestIntervalSpec:
    def test_symmetric_defaults(self):
        spec = IntervalSpec(0.1)
        assert not spec.asymmetric and spec.inflation_eps == 0.0

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            IntervalSpec(-0.01)
        with pytest.raises(ConfigError):
            IntervalSpec(1.01)

    def test_asymmetric_needs_both_tails(self):
        with pytest.raises(ConfigError, match="both"):
            IntervalSpec(0.2, alpha_lo=0.1)
        with pytest.raises(ConfigError, match="positive"):
            IntervalSpec(0.2, alpha_lo=0.2, alpha_hi=0.0)
        with pytest.raises(ConfigError, match="positive"):
            IntervalSpec(0.2, alpha_lo=math.nan, alpha_hi=0.2)
        with pytest.raises(ConfigError, match="does not match"):
            IntervalSpec(0.2, alpha_lo=0.05, alpha_hi=0.05)
        assert IntervalSpec(0.2, alpha_lo=0.15, alpha_hi=0.05).asymmetric

    @pytest.mark.parametrize("level", ["0.1", True, 0.1 + 0j, math.nan], ids=repr)
    def test_levels_must_be_real_numbers(self, level):
        with pytest.raises(ConfigError, match="alpha must be a real number"):
            IntervalSpec(level)
        with pytest.raises(ConfigError, match="must be positive real numbers"):
            IntervalSpec(0.2, alpha_lo=level, alpha_hi=0.1)
        with pytest.raises(ConfigError, match="must be positive real numbers"):
            IntervalSpec(0.2, alpha_lo=0.1, alpha_hi=level)

    def test_float32_levels_are_read_exactly(self):
        # The spec accepts what the index arithmetic reads: float32(0.25) is
        # exactly 0.25, and a float32 tail split matches its float32 total.
        data, _ = gen_gaussian_linear(9, 2, seed=3)
        cache = build_loo_cache(data, MEAN)
        x = data.features[0]
        quarter = np.float32(0.25)
        assert cv_plus(cache, IntervalSpec(quarter), x) == cv_plus(cache, IntervalSpec(0.25), x)
        split = IntervalSpec(np.float32(0.2), alpha_lo=np.float32(0.1), alpha_hi=np.float32(0.1))
        tail = float(np.float32(0.1))
        assert cv_plus(cache, split, x) == cv_plus(
            cache, IntervalSpec(float(np.float32(0.2)), alpha_lo=tail, alpha_hi=tail), x)

    def test_inflation_sign(self):
        with pytest.raises(ConfigError):
            IntervalSpec(0.1, inflation_eps=-1e-9)
        for eps in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="inflation_eps"):
                IntervalSpec(0.1, inflation_eps=eps)


class TestPredictionInterval:
    def test_contains_is_closed(self):
        iv = PredictionInterval(-1.0, 3.0)
        assert iv.contains(-1.0) and iv.contains(3.0) and iv.contains(0.0)
        assert not iv.contains(3.0000001)

    def test_empty_interval(self):
        iv = PredictionInterval(2.0, 1.0)
        assert iv.is_empty and iv.width == 0.0
        assert not iv.contains(1.5)


class TestPredictionSet:
    def test_merging_and_ordering(self):
        s = PredictionSet.from_intervals(
            [
                PredictionInterval(5.0, 6.0),
                PredictionInterval(0.0, 1.0),
                PredictionInterval(1.0, 2.0),  # touches the previous one
                PredictionInterval(3.0, 2.5),  # empty, dropped
            ]
        )
        assert [endpoints(iv) for iv in s.intervals] == [(0.0, 2.0), (5.0, 6.0)]
        assert s.width == 3.0

    def test_empty_set(self):
        s = PredictionSet.from_intervals([])
        assert s.is_empty and s.width == 0.0
        assert not s.contains(0.0)

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
            ),
            max_size=12,
        )
    )
    def test_canonical_form_preserves_membership(self, pairs):
        items = [PredictionInterval(lo, hi) for lo, hi in pairs]
        s = PredictionSet.from_intervals(items)
        # Components are sorted and strictly separated.
        for a, b in zip(s.intervals, s.intervals[1:]):
            assert a.upper < b.lower
        # Membership agrees with the raw union on every endpoint.
        for lo, hi in pairs:
            for y in (lo, hi, (lo + hi) / 2.0):
                assert s.contains(y) == any(iv.contains(y) for iv in items)
        # Canonicalizing twice changes nothing.
        assert PredictionSet.from_intervals(s.intervals) == s


class TestWorkedExamples:
    def test_naive(self, worked):
        iv = evaluated(worked, "naive", IntervalSpec(0.25))
        assert endpoints(iv) == (-1.0, 3.0)

    def test_jackknife(self, worked_cache):
        iv = jackknife(worked_cache, IntervalSpec(0.25), X_PROBE)
        assert endpoints(iv) == (-2.0, 4.0)

    def test_jackknife_plus(self, worked_cache):
        iv = jackknife_plus(worked_cache, IntervalSpec(0.25), X_PROBE)
        assert endpoints(iv) == (-3.0, 3.0)

    def test_jackknife_minmax(self, worked_cache):
        iv = jackknife_minmax(worked_cache, IntervalSpec(0.25), X_PROBE)
        assert endpoints(iv) == (-3.0, 4.5)

    def test_split(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 3.0, 9.0])
        # At seed 9 the split keeps rows (0, 3) and holds out rows (1, 2).
        kept, held = SplitSpec(0.5, seed=derive_seed(9, "split")).resolve(4)
        assert (kept.tolist(), held.tolist()) == ([0, 3], [1, 2])
        # Fit mean (0 + 9) / 2 = 4.5 on rows (0, 3); holdout residuals
        # |0 - 4.5| = 4.5 and |3 - 4.5| = 1.5; the upper quantile at
        # alpha = 0.5 is the ceil(0.5 * 3) = 2nd smallest, 4.5, so the
        # interval is 4.5 -+ 4.5.
        iv = evaluated(data, "split", IntervalSpec(0.5), seed=9)
        assert endpoints(iv) == (0.0, 9.0)

    def test_cv_plus_two_folds(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 3.0, 9.0])
        cache = LooCache(data, MEAN, [0, 0, 1, 1])
        # Fold models: without fold 0 -> mean 6, without fold 1 -> mean 0.
        # m = (6, 6, 0, 0), R = (6, 6, 3, 9); at alpha = 0.25 the upper index
        # is ceil(0.75*5) = 4 and the lower floor(0.25*5) = 1.
        iv = cv_plus(cache, IntervalSpec(0.25), X_PROBE)
        assert endpoints(iv) == (-9.0, 12.0)

    def test_cross_conformal_tau_regimes(self, worked_cache):
        spec = IntervalSpec(0.25)
        # tau = 1 accepts both boundary points: the set is [-3, 3].
        s1 = cross_conformal_set(worked_cache, spec, X_PROBE, tau=1.0)
        assert [endpoints(iv) for iv in s1.intervals] == [(-3.0, 3.0)]
        # tau = 0 drops everything that relies on ties; only the open core
        # (0, 3) survives and the returned closure is [0, 3].
        s0 = cross_conformal_set(worked_cache, spec, X_PROBE, tau=0.0)
        assert [endpoints(iv) for iv in s0.intervals] == [(0.0, 3.0)]
        # tau = 0.25 sits exactly on the boundary: the strict inequality
        # excludes y = 3 itself but its closure is still [-3, 3].
        s_mid = cross_conformal_set(worked_cache, spec, X_PROBE, tau=0.25)
        assert [endpoints(iv) for iv in s_mid.intervals] == [(-3.0, 3.0)]

    def test_full_conformal(self, worked):
        s = full_conformal_set(
            worked, MEAN, IntervalSpec(0.25), X_PROBE,
            GridSpec(num_points=301, lower=-5.0, upper=5.0),
        )
        assert [endpoints(iv) for iv in s.intervals] == [(-3.0, 3.0)]


class TestModes:
    def test_inflation_widens_every_interval_method(self, worked, worked_cache):
        base = IntervalSpec(0.25)
        fat = IntervalSpec(0.25, inflation_eps=0.5)
        pairs = [
            (evaluated(worked, "naive", base), evaluated(worked, "naive", fat)),
            (jackknife(worked_cache, base, X_PROBE), jackknife(worked_cache, fat, X_PROBE)),
            (jackknife_plus(worked_cache, base, X_PROBE),
             jackknife_plus(worked_cache, fat, X_PROBE)),
            (jackknife_minmax(worked_cache, base, X_PROBE),
             jackknife_minmax(worked_cache, fat, X_PROBE)),
        ]
        for thin, wide in pairs:
            assert wide.lower == thin.lower - 0.5
            assert wide.upper == thin.upper + 0.5

    def test_inflation_monotone(self, worked_cache):
        widths = [
            jackknife_plus(worked_cache, IntervalSpec(0.25, inflation_eps=e), X_PROBE).width
            for e in (0.0, 0.1, 0.2, 1.0)
        ]
        assert widths == sorted(widths)

    def test_asymmetric_worked_example(self, worked):
        # Signed residuals (-1, -1, 2) around the full mean 1. At
        # alpha_lo = alpha_hi = 0.25 the lower tail takes the floor(0.25*4) =
        # 1st smallest (-1) and the upper the ceil(0.75*4) = 3rd smallest (2).
        spec = IntervalSpec(0.5, alpha_lo=0.25, alpha_hi=0.25)
        iv = evaluated(worked, "naive", spec)
        assert endpoints(iv) == (0.0, 3.0)

    def test_asymmetric_splits_the_budget(self, worked_cache):
        sym = jackknife_plus(worked_cache, IntervalSpec(0.5), X_PROBE)
        asym = jackknife_plus(
            worked_cache, IntervalSpec(0.5, alpha_lo=0.25, alpha_hi=0.25), X_PROBE
        )
        assert not asym.is_empty
        assert asym.lower >= sym.lower or asym.upper <= sym.upper

    def test_set_methods_reject_asymmetric_and_inflation(self, worked, worked_cache):
        asym = IntervalSpec(0.5, alpha_lo=0.25, alpha_hi=0.25)
        fat = IntervalSpec(0.25, inflation_eps=0.1)
        for spec in (asym, fat):
            with pytest.raises(ConfigError):
                cross_conformal_set(worked_cache, spec, X_PROBE, 0.5)
            with pytest.raises(ConfigError):
                full_conformal_set(worked, MEAN, spec, X_PROBE)


class TestOverflow:
    def test_alpha_below_resolution_gives_the_whole_line(self, worked_cache):
        # 0.1 < 1/(n+1) = 0.25, so both quantile indices overflow.
        iv = jackknife_plus(worked_cache, IntervalSpec(0.1), X_PROBE)
        assert endpoints(iv) == (-math.inf, math.inf)
        assert iv.contains(1e300)

    def test_alpha_zero(self, worked):
        iv = evaluated(worked, "naive", IntervalSpec(0.0))
        assert endpoints(iv) == (-math.inf, math.inf)

    def test_cross_conformal_accepts_everything_at_alpha_zero(self, worked_cache):
        s = cross_conformal_set(worked_cache, IntervalSpec(0.0), X_PROBE, tau=0.5)
        assert [endpoints(iv) for iv in s.intervals] == [(-math.inf, math.inf)]


QUERY_SPEC = IntervalSpec(0.25)
BUILDERS = {
    "jackknife": lambda cache, x: jackknife(cache, QUERY_SPEC, x),
    "jackknife+": lambda cache, x: jackknife_plus(cache, QUERY_SPEC, x),
    "jackknife-mm": lambda cache, x: jackknife_minmax(cache, QUERY_SPEC, x),
    "cv+": lambda cache, x: cv_plus(cache, QUERY_SPEC, x),
    "cross-conformal": lambda cache, x: cross_conformal_set(cache, QUERY_SPEC, x, 0.5),
    "full-conformal": lambda cache, x: full_conformal_set(
        cache.train, cache.regressor, QUERY_SPEC, x, GridSpec(num_points=3)),
}
BAD_POINTS = {
    "short": [0.0, 1.0],
    "2-D": [[0.0, 1.0, 2.0]],
    "scalar": 1.0,
    "string": "abc",
    "ragged": [[0.0], [1.0, 2.0]],
    "nan": [math.nan, 0.0, 0.0],
    "nan-inf": [math.nan, 0.0, math.inf],
}


@pytest.mark.parametrize("reg", [MinNormOLS(), KNN(k=2), Memorizer()], ids=lambda r: r.token)
@pytest.mark.parametrize("point", BAD_POINTS.values(), ids=BAD_POINTS.keys())
@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
def test_bad_query_points_are_data_errors(builder, point, reg):
    data, _ = gen_gaussian_linear(6, 3, seed=4)
    cache = build_loo_cache(data, reg)
    with pytest.raises(DataError, match="a query point must be"):
        builder(cache, point)


def built_caches(monkeypatch) -> list:
    """The caches evaluate_methods builds, listed as they are built."""
    built = []

    def spy(*args, **kwargs):
        built.append(build_loo_cache(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(predint.experiments, "build_loo_cache", spy)
    return built


class TestCacheConstruction:
    def test_loo_is_the_default(self, worked):
        cache = build_loo_cache(worked, MEAN)
        assert cache.k_folds == worked.n
        assert cache.fold_of.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(cache.residuals, [1.5, 1.5, 3.0])

    def test_leave_one_out_holds_no_fold_labels(self, monkeypatch):
        # An implicit leave-one-out partition is neither stored nor counted;
        # fold_of is built when read.
        def no_count(*args):
            raise AssertionError("counted a leave-one-out partition")

        monkeypatch.setattr(predint.intervals, "_fold_sizes", no_count)
        monkeypatch.setattr(predint.regressors, "_fold_sizes", no_count)
        train = gen_pathological_abc(50, 0.25, 0.05, seed=6, tau=2.0)
        for reg in (MEAN, ParityAdversary(2.0)):
            cache = build_loo_cache(train, reg)
            assert cache.k_folds == 50 and "fold_of" not in vars(cache)
            assert cache.fold_of.tolist() == list(range(50))
            assert not cache.fold_of.flags.writeable
            assert LooCache(train, reg).k_folds == 50

    def test_fold_partition_properties(self, monkeypatch):
        # evaluate_methods warns that K = 5 deals 17 rows unevenly; the folds
        # of the cache it builds differ in size by at most one.
        data, _ = gen_gaussian_linear(17, 2, seed=1)
        caches = built_caches(monkeypatch)
        with pytest.warns(UserWarning, match="differ by one"):
            evaluate_methods(data, [[0.0, 0.0]], MEAN, [MethodSpec("cv+", k_folds=5)],
                             [IntervalSpec(0.2)], seed=3)
        sizes = np.bincount(caches[0].fold_of, minlength=5)
        assert sizes.sum() == 17
        assert sizes.max() - sizes.min() <= 1

    def test_strict_mode_requires_divisibility(self):
        data, _ = gen_gaussian_linear(17, 2, seed=1)
        reg, specs = CountingRegressor(MEAN), [IntervalSpec(0.2)]
        with pytest.raises(ConfigError, match="strict"):
            evaluate_methods(data, [[0.0, 0.0]], reg, [MethodSpec("cv+", k_folds=5)], specs,
                             strict=True)
        assert reg.fits == 0
        for k in (17, None):  # K = n always fine
            out = evaluate_methods(data, [[0.0, 0.0]], reg, [MethodSpec("cv+", k_folds=k)],
                                   specs, strict=True)
            assert len(out[0][0]) == 1
        # The cache builder itself deals uneven folds silently, and has no
        # strict mode: an unexpected divisibility warning fails the suite.
        assert build_loo_cache(data, MEAN, 5).k_folds == 5
        with pytest.raises(TypeError, match="strict"):
            build_loo_cache(data, MEAN, 5, strict=True)

    def test_fold_partition_depends_on_content_not_order(self, monkeypatch):
        data, _ = gen_gaussian_linear(12, 2, seed=2)
        perm = derive_rng(0, "fold-perm").permutation(12)
        caches = built_caches(monkeypatch)
        for train in (data, data.take(perm)):
            with pytest.warns(UserWarning, match="differ by one"):
                evaluate_methods(train, [[0.0, 0.0]], MEAN, [MethodSpec("cv+", k_folds=5)],
                                 [IntervalSpec(0.2)], seed=9)
        a, b = caches
        # Row i of the original is row perm^-1(i)... simplest check: the
        # map from row content to fold label is identical.
        shuffled = data.take(perm)
        key_a = {
            (data.features[i].tobytes(), data.responses[i]): a.fold_of[i]
            for i in range(12)
        }
        key_b = {
            (shuffled.features[i].tobytes(), shuffled.responses[i]): b.fold_of[i]
            for i in range(12)
        }
        assert key_a == key_b

    def test_explicit_partition(self, worked):
        cache = LooCache(worked, MEAN, [0, 1, 0])
        assert cache.fold_of.tolist() == [0, 1, 0] and cache.k_folds == 2
        assert not cache.fold_of.flags.writeable
        with pytest.raises(ConfigError, match="fold_of"):
            LooCache(worked, MEAN, [0, 1, 3])

    def test_cache_fits_its_own_partition(self, worked):
        calls = []

        class Spy(ConstantMean):
            def fit_folds(self, train, fold_of):
                calls.append(np.array(fold_of))
                return super().fit_folds(train, fold_of)

        cache = LooCache(worked, Spy(), [0, 1, 0])
        assert len(calls) == 1 and calls[0].tolist() == cache.fold_of.tolist() == [0, 1, 0]
        # Fold models from another partition cannot be handed in.
        with pytest.raises(TypeError):
            LooCache(worked, MEAN, np.arange(3), *MEAN.fit_folds(worked, [0, 0, 1]))

    def test_k_is_read_from_the_partition(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 3.0, 9.0])
        spec = IntervalSpec(0.25)
        two = LooCache(data, MEAN, [0, 0, 1, 1])
        assert two.k_folds == 2
        for method in (jackknife, jackknife_plus, jackknife_minmax):
            with pytest.raises(ConfigError, match="leave-one-out"):
                method(two, spec, X_PROBE)
        one = LooCache(data, MEAN, [2, 2, 2, 2])
        assert one.k_folds == 1
        with pytest.raises(ConfigError, match="2 folds"):
            cv_plus(one, spec, X_PROBE)
        with pytest.raises(ConfigError, match="2 folds"):
            cross_conformal_set(one, spec, X_PROBE, tau=0.5)

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_dealt_folds_give_the_requested_k(self, k):
        data, _ = gen_gaussian_linear(12, 2, seed=4)
        cache = build_loo_cache(data, MEAN, k, fold_seed=1)  # K = 5 does not divide 12
        assert cache.k_folds == len(cache.models) == k

    def test_k_bounds(self, worked):
        with pytest.raises(ConfigError):
            build_loo_cache(worked, MEAN, 0)
        with pytest.raises(ConfigError):
            build_loo_cache(worked, MEAN, 4)

    def test_guards(self, worked):
        cache2 = LooCache(worked, MEAN, [0, 1, 0])
        with pytest.raises(ConfigError, match="leave-one-out"):
            jackknife_plus(cache2, IntervalSpec(0.25), X_PROBE)
        with pytest.raises(ConfigError, match="leave-one-out"):
            jackknife_minmax(cache2, IntervalSpec(0.25), X_PROBE)
        loo1 = build_loo_cache(Dataset([[0.0]], [1.0]), MEAN)
        with pytest.raises(ConfigError, match="2 folds"):
            cv_plus(loo1, IntervalSpec(0.25), X_PROBE)
        with pytest.raises(ConfigError, match="at least 2"):
            jackknife(loo1, IntervalSpec(0.25), X_PROBE)
        with pytest.raises(ConfigError, match=r"jackknife\+ needs at least 2 training rows"):
            jackknife_plus(loo1, IntervalSpec(0.25), X_PROBE)

    def test_model_indices_are_range_checked(self, worked):
        models = [MEAN.fit(worked)]
        in_sample = models[0].predict_many(worked.features)

        def folds_returning(models, model_of):
            class Fixed(ConstantMean):
                def fit_folds(self, train, fold_of):
                    return models, np.array(model_of), in_sample
            return Fixed()

        for model_of in ([0, 1, 0], [0, -1, 0]):
            with pytest.raises(ConfigError, match="model_of must index"):
                LooCache(worked, folds_returning(models, model_of), np.arange(3))
        # A model that no row uses would widen jackknife-minmax.
        with pytest.raises(ConfigError, match="model_of must use every"):
            LooCache(worked, folds_returning(models * 2, [0, 0, 0]), np.arange(3))

    def test_fold_results_are_length_n_arrays(self, worked):
        def folds_reshaped(model_of_as=np.asarray, in_sample_as=np.asarray):
            class Reshaped(ConstantMean):
                def fit_folds(self, train, fold_of):
                    models, model_of, in_sample = super().fit_folds(train, fold_of)
                    return models, model_of_as(model_of), in_sample_as(in_sample)
            return Reshaped()

        # A scalar in-sample prediction would broadcast to every row.
        for in_sample_as in (lambda a: 2.0, lambda a: a[:, None]):
            with pytest.raises(ConfigError, match="in_sample must be a 1-D array of length 3"):
                LooCache(worked, folds_reshaped(in_sample_as=in_sample_as), np.arange(3))
        for model_of_as in (list, lambda a: a[:2], lambda a: a.astype(float)):
            with pytest.raises(ConfigError, match="model_of must be a 1-D integer array"):
                LooCache(worked, folds_reshaped(model_of_as=model_of_as), np.arange(3))
        assert LooCache(worked, folds_reshaped(), np.arange(3)).n == 3

    def test_non_finite_residuals_are_rejected(self):
        # Each leave-one-out memorizer predicts (1 + eps)(n - 1) = inf on its
        # left-out row, so every in-sample residual is -inf.
        data, _ = gen_gaussian_linear(4, 1, seed=3)
        with pytest.raises(DataError, match="residuals are not finite"):
            build_loo_cache(data, Memorizer(eps=1e308))


def random_case(seed, n=None, reg=None):
    rng = derive_rng(seed, "case")
    n = n or int(rng.integers(3, 12))
    data, _ = gen_gaussian_linear(n + 1, 2, derive_seed_like(rng))
    reg = reg or (MEAN if seed % 2 else MinNormOLS())
    return data.head(n), data.features[n], reg


def derive_seed_like(rng):
    return int(rng.integers(0, 2**32))


class TestStructuralRelations:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
    def test_jackknife_plus_inside_minmax(self, alpha):
        for seed in range(25):
            train, x, reg = random_case(seed)
            cache = build_loo_cache(train, reg)
            plus = jackknife_plus(cache, IntervalSpec(alpha), x)
            mm = jackknife_minmax(cache, IntervalSpec(alpha), x)
            assert mm.lower <= plus.lower and plus.upper <= mm.upper

    def test_cv_plus_at_n_folds_is_jackknife_plus_bitwise(self):
        for seed in range(10):
            train, x, reg = random_case(seed)
            loo = build_loo_cache(train, reg)
            explicit = build_loo_cache(train, reg, k_folds=train.n)
            a = jackknife_plus(loo, IntervalSpec(0.25), x)
            b = cv_plus(explicit, IntervalSpec(0.25), x)
            assert endpoints(a) == endpoints(b)

    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_median_of_loo_predictions_is_covered(self, alpha):
        for seed in range(20):
            train, x, reg = random_case(seed)
            cache = build_loo_cache(train, reg)
            iv = jackknife_plus(cache, IntervalSpec(alpha), x)
            med = float(np.median(cache.predictions_at(x)))
            assert iv.contains(med)

    def test_cross_conformal_inside_cv_plus(self):
        rng = derive_rng(7, "tau-stream")
        for seed in range(25):
            train, x, reg = random_case(seed)
            for k in (None, 3):
                cache = build_loo_cache(train, reg, k)
                spec = IntervalSpec(0.25)
                hull = cv_plus(cache, spec, x)
                s = cross_conformal_set(cache, spec, x, float(rng.random()))
                for comp in s.intervals:
                    assert hull.lower <= comp.lower and comp.upper <= hull.upper

    def test_interval_methods_are_permutation_invariant(self):
        train, x, _ = random_case(3, n=9)
        reg = MinNormOLS()
        cache = build_loo_cache(train, reg)
        spec = IntervalSpec(0.25)
        base = {
            "jk": endpoints(jackknife(cache, spec, x)),
            "jk+": endpoints(jackknife_plus(cache, spec, x)),
            "mm": endpoints(jackknife_minmax(cache, spec, x)),
            "cc": [
                endpoints(iv)
                for iv in cross_conformal_set(cache, spec, x, 0.37).intervals
            ],
        }
        rng = derive_rng(11, "perm")
        for _ in range(5):
            shuffled = train.take(rng.permutation(train.n))
            c2 = build_loo_cache(shuffled, reg)
            assert endpoints(jackknife(c2, spec, x)) == base["jk"]
            assert endpoints(jackknife_plus(c2, spec, x)) == base["jk+"]
            assert endpoints(jackknife_minmax(c2, spec, x)) == base["mm"]
            got = [
                endpoints(iv)
                for iv in cross_conformal_set(c2, spec, x, 0.37).intervals
            ]
            assert got == base["cc"]


def reference_cv_plus(cache, spec, x):
    """cv+ from freshly built per-row vectors and the public quantiles."""
    m = cache.predictions_at(x)
    eps = spec.inflation_eps
    if spec.asymmetric:
        shifted = m + cache.signed_residuals
        return PredictionInterval(
            lower_quantile(shifted, spec.alpha_lo) - eps,
            upper_quantile(shifted, spec.alpha_hi) + eps,
        )
    return PredictionInterval(
        lower_quantile(m - cache.residuals, spec.alpha) - eps,
        upper_quantile(m + cache.residuals, spec.alpha) + eps,
    )


def reference_minmax(cache, spec, x):
    m = cache.predictions_at(x)
    lo, hi = float(np.min(m)), float(np.max(m))
    eps = spec.inflation_eps
    if spec.asymmetric:
        return PredictionInterval(
            lo + lower_quantile(cache.signed_residuals, spec.alpha_lo) - eps,
            hi + upper_quantile(cache.signed_residuals, spec.alpha_hi) + eps,
        )
    q = upper_quantile(cache.residuals, spec.alpha)
    return PredictionInterval(lo - q - eps, hi + q + eps)


def bits(iv):
    return (iv.lower.hex(), iv.upper.hex())


class TestStreamingKernel:
    """cv+, jackknife+ and jackknife-mm select from one reusable buffer; they
    must equal, bit for bit, the quantile operators applied to freshly built
    ``predictions_at(x) +- residuals``."""

    N = 20
    # alpha = 0.04 < 1/(n+1) overflows the indices, alpha = 1 underflows them.
    SPECS = [
        IntervalSpec(0.04),
        IntervalSpec(0.1),
        IntervalSpec(0.25, inflation_eps=0.5),
        IntervalSpec(1.0),
        IntervalSpec(0.2, alpha_lo=0.05, alpha_hi=0.15),
        IntervalSpec(0.04, alpha_lo=0.02, alpha_hi=0.02),
        IntervalSpec(0.3, alpha_lo=0.1, alpha_hi=0.2, inflation_eps=0.25),
    ]

    @pytest.fixture
    def tied(self):
        """Integer features and responses: many tied predictions and residuals."""
        rng = derive_rng(8, "tied")
        X = rng.integers(-2, 3, size=(self.N + 6, 2)).astype(float)
        y = rng.integers(0, 4, size=self.N + 6).astype(float)
        return Dataset(X[: self.N], y[: self.N]), X[self.N :]

    def check(self, cache, probes):
        for x in probes:
            for spec in self.SPECS:
                assert bits(cv_plus(cache, spec, x)) == bits(reference_cv_plus(cache, spec, x))
                if cache.k_folds == cache.n:
                    assert bits(jackknife_plus(cache, spec, x)) == bits(
                        reference_cv_plus(cache, spec, x))
                    assert bits(jackknife_minmax(cache, spec, x)) == bits(
                        reference_minmax(cache, spec, x))

    @pytest.mark.parametrize("k", [2, 5, N])
    @pytest.mark.parametrize("reg", [MEAN, MinNormOLS(), Memorizer(eps=0.5)],
                             ids=["mean", "ols", "memorizer"])
    def test_matches_the_quantile_operators(self, tied, reg, k):
        train, probes = tied
        self.check(build_loo_cache(train, reg, k, fold_seed=3), probes)

    def test_shuffled_assignment_with_empty_folds(self, tied):
        train, probes = tied
        fold_of = derive_rng(4, "empty-folds").integers(0, self.N, size=self.N)
        unused = np.setdiff1d(np.arange(self.N), fold_of)
        assert unused.size > 0
        reg = Memorizer(eps=0.5)
        cache = LooCache(train, reg, fold_of)
        # Empty folds get no model and do not count toward K.
        assert len(cache.models) == cache.k_folds == self.N - unused.size
        x = probes[0] + 0.5
        self.check(cache, [x, *probes])
        # Labels in range(n) with some unused are not leave-one-out.
        with pytest.raises(ConfigError, match="leave-one-out"):
            jackknife_minmax(cache, self.SPECS[0], x)

    @pytest.mark.parametrize(
        "spec",
        [IntervalSpec(0.25, inflation_eps=0.01),
         IntervalSpec(0.25, alpha_lo=0.1, alpha_hi=0.15, inflation_eps=0.01)],
        ids=["symmetric", "asymmetric"],
    )
    def test_a_query_allocates_one_work_buffer(self, spec):
        n = 100_000
        train = gen_pathological_abc(n, 0.25, 0.05, seed=6, tau=1000.0)
        cache = build_loo_cache(train, ParityAdversary(1000.0))
        x = np.array([1.0, -1.0, 0.5])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jackknife_plus(cache, spec, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n

    def test_a_query_with_many_models_allocates_one_work_buffer(self):
        # 25 folds of 4000 rows each, below _GROUPED_ROWS_PER_MODEL: cv+ takes
        # the buffer path. The first query computes the absolute residuals.
        n = 100_000
        rng = derive_rng(5, "buffer")
        cache = build_loo_cache(Dataset(rng.standard_normal((n, 1)), rng.standard_normal(n)),
                                MEAN, 25)
        x, spec = np.array([0.5]), IntervalSpec(0.2)
        cv_plus(cache, spec, x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cv_plus(cache, spec, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n


class TestGroupedQueries:
    """cv+ and jackknife+ from each model's sorted residuals, forced onto
    small caches, against the buffer-and-partition oracle
    (``reference_cv_plus``), bit for bit."""

    N = 23  # no K below divides it, so fold sizes differ
    SPECS = TestStreamingKernel.SPECS
    check = TestStreamingKernel.check

    @pytest.fixture(autouse=True)
    def grouped(self, monkeypatch):
        """Every cache with at least one row per model takes the grouped path."""
        monkeypatch.setattr(predint.intervals, "_GROUPED_ROWS_PER_MODEL", 1)

    @pytest.mark.parametrize("k", [2, 3, 10, N])
    @pytest.mark.parametrize("reg", [MEAN, Memorizer(eps=0.5)], ids=["mean", "memorizer"])
    def test_k_fold_caches_with_ties(self, reg, k):
        # Integer responses give tied and zero residuals; the memorizer gives
        # every model the same prediction at a new point.
        rng = derive_rng(9, "grouped")
        X = rng.integers(-2, 3, size=(self.N + 4, 2)).astype(float)
        y = rng.integers(0, 4, size=self.N).astype(float)
        fold_of = np.concatenate([np.arange(k), rng.integers(0, k, size=self.N - k)])
        cache = LooCache(Dataset(X[: self.N], y), reg, fold_of)
        assert len(cache.models) == k
        self.check(cache, [*X[self.N :], X[0], X[0] + 0.5])

    @pytest.mark.parametrize("signs", ["all-plus", "mixed"])
    def test_parity_with_one_and_two_models(self, signs):
        train = gen_pathological_abc(40, 0.25, 0.05, seed=11, tau=10.0)
        if signs == "all-plus":
            X = train.features.copy()
            X[:, 1] = 1.0
            train = Dataset(X, train.responses)
        cache = build_loo_cache(train, ParityAdversary(10.0))
        assert len(cache.models) == (1 if signs == "all-plus" else 2)
        self.check(cache, [np.array([1.0, b, c]) for b in (-1.0, 1.0) for c in (-0.7, 0.3)])

    @pytest.mark.parametrize(
        "spec",
        [IntervalSpec(0.5), IntervalSpec(0.9), IntervalSpec(0.25),
         IntervalSpec(0.5, alpha_lo=0.25, alpha_hi=0.25)],
        ids=["0.5", "0.9", "0.25", "asymmetric"],
    )
    def test_zero_predictions_select_one_zero(self, spec):
        # Two models against n = 20,000 rows. At probes with A = 0 or C = 0
        # every fold prediction is +-0, so with eps = 0 an endpoint can be a
        # zero, which the partition oracle may find as -0.0: every path
        # returns 0.0.
        train = gen_pathological_abc(20_000, 0.25, 0.05, seed=6, tau=100.0)
        cache = build_loo_cache(train, ParityAdversary(100.0))
        probes = gen_pathological_abc(256, 0.25, 0.05, seed=12).features.copy()
        probes[::2, 0] = 0.0
        probes[1::2, 2] = -0.0
        assert len(cache.models) == 2
        for x in probes:
            assert not np.any(cache.predictions_at(x))
            assert bits(cv_plus(cache, spec, x)) == bits(reference_cv_plus(cache, spec, x))
        block = evaluate_methods(train, probes, ParityAdversary(100.0),
                                 [MethodSpec("jackknife+")], [spec])[0][0]
        assert [bits(iv) for iv in block] == [
            bits(reference_cv_plus(cache, spec, x)) for x in probes]


def test_parity_queries_build_no_n_vector():
    # Two leave-one-out models against n = 20,000 rows: jackknife+ takes the
    # grouped path. The cache holds the signed residuals, model_of (one byte a
    # row) and, from the first query on, the sorted residuals; no fold labels.
    n = 20_000
    train = gen_pathological_abc(n, 0.25, 0.05, seed=6, tau=1000.0)
    probes = gen_pathological_abc(10, 0.25, 0.05, seed=7).features
    spec = IntervalSpec(0.25, inflation_eps=0.01)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = build_loo_cache(train, ParityAdversary(1000.0))
        jackknife_plus(cache, spec, probes[0])
        first_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        settled = tracemalloc.get_traced_memory()[0]
        for x in probes[1:]:
            jackknife_plus(cache, spec, x)
        query_peak = tracemalloc.get_traced_memory()[1] - settled
    finally:
        tracemalloc.stop()
    assert first_peak <= 2.5 * 8 * n
    assert query_peak <= 0.1 * 8 * n


def reference_fixed_center(model, signed_residuals, spec, x):
    """naive, split and jackknife one query at a time: the residual quantiles
    around ``model``'s scalar prediction at x."""
    center, eps = model.predict(x), spec.inflation_eps
    if spec.asymmetric:
        q_lo = lower_quantile(signed_residuals, spec.alpha_lo)
        q_hi = upper_quantile(signed_residuals, spec.alpha_hi)
    else:
        q_hi = upper_quantile(np.abs(signed_residuals), spec.alpha)
        q_lo = -q_hi
    return PredictionInterval(center + q_lo - eps, center + q_hi + eps)


def reference_intervals(train, reg, mspec, spec, X, seed):
    """Every row's interval from the per-query references, with the fits
    ``evaluate_methods`` makes for ``mspec`` at ``seed``."""
    n = train.n
    loo = build_loo_cache(train, reg)
    if mspec.method == "naive":
        model = reg.fit(train)
        return [reference_fixed_center(
            model, train.responses - model.predict_many(train.features), spec, x) for x in X]
    if mspec.method == "split":
        # The split deals its positions over the canonical row order.
        fit_at, hold_at = SplitSpec(0.5, seed=derive_seed(seed, "split")).resolve(n)
        order = canonical_order(train.features, train.responses)
        model, held = reg.fit(train.take(order[fit_at])), train.take(order[hold_at])
        residuals = held.responses - model.predict_many(held.features)
        return [reference_fixed_center(model, residuals, spec, x) for x in X]
    if mspec.method == "jackknife":
        return [reference_fixed_center(loo.full_model, loo.signed_residuals, spec, x) for x in X]
    if mspec.method == "jackknife-mm":
        return [reference_minmax(loo, spec, x) for x in X]
    k = mspec.k_folds or n
    cache = build_loo_cache(train, reg, k, fold_seed=derive_seed(seed, f"folds/{k}") if k < n else 0)
    return [reference_cv_plus(cache, spec, x) for x in X]


class TestBlockOracle:
    """``evaluate_methods`` builds every interval method a block of rows at a
    time; each endpoint equals the per-query reference bit for bit."""

    N = 24
    METHODS = [MethodSpec("naive"), MethodSpec("split"), MethodSpec("jackknife"),
               MethodSpec("jackknife+"), MethodSpec("jackknife-mm"),
               MethodSpec("cv+", k_folds=2), MethodSpec("cv+", k_folds=3),
               MethodSpec("cv+", k_folds=N)]

    @pytest.fixture
    def tied(self):
        """Small integer features and responses: tied predictions and
        residuals. The second feature is +-1 and the others hold zeros, so
        parity's predictions include +-0; the queries repeat training rows."""
        rng = derive_rng(17, "block-oracle")
        X = rng.integers(-1, 3, size=(self.N + 8, 3)).astype(float)
        X[:, 1] = np.where(X[:, 1] > 0, 1.0, -1.0)
        y = rng.integers(0, 3, size=self.N).astype(float)
        return Dataset(X[: self.N], y), np.concatenate([X[self.N :], X[:4]])

    @pytest.mark.parametrize("block", ["one-block", "many-blocks"])
    @pytest.mark.parametrize(
        "spec",
        [IntervalSpec(0.2), IntervalSpec(0.3, alpha_lo=0.1, alpha_hi=0.2),
         IntervalSpec(0.25, inflation_eps=0.5)],
        ids=["symmetric", "asymmetric", "eps"],
    )
    @pytest.mark.parametrize(
        "reg",
        [MinNormOLS(), Ridge(), KNN(k=3), MEAN, Memorizer(eps=0.5), ParityAdversary(3.0)],
        ids=lambda r: r.token,
    )
    def test_matches_the_per_query_references(self, tied, reg, spec, block, monkeypatch):
        if block == "many-blocks":  # blocks of 2 rows, buffers of one candidate row
            monkeypatch.setattr(predint.experiments, "_POINT_BLOCK", 2 * self.N)
            monkeypatch.setattr(predint.intervals, "_POINT_BLOCK", 1)
        train, X = tied
        got = evaluate_methods(train, X, reg, self.METHODS, [spec], seed=5)
        for mspec, (ivs,) in zip(self.METHODS, got):
            want = reference_intervals(train, reg, mspec, spec, X, seed=5)
            assert [bits(iv) for iv in ivs] == [bits(iv) for iv in want], mspec.label


SYMMETRY_METHODS = [MethodSpec(token, k_folds=3, grid=GridSpec(num_points=12))
                    for token in METHOD_TOKENS]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(30)))
@pytest.mark.parametrize("reg", [MinNormOLS(), Ridge(), KNN(k=3), MEAN], ids=lambda r: r.token)
def test_no_method_depends_on_the_order_of_the_training_rows(reg, seed, perm):
    """The guarantee holds for algorithms that treat the training points
    symmetrically: every method, split and the K-fold deals included, gives
    the same bits on the training rows in any order."""
    data = gen_gaussian_linear(34, 3, seed)[0]
    train, X = data.head(30), data.tail_from(30).features

    def every_bit(rows):
        out = evaluate_methods(rows, X, reg, SYMMETRY_METHODS, [IntervalSpec(0.2)], seed=7)
        return [[set_bits(obj) if isinstance(obj, PredictionSet) else bits(obj) for obj in objs]
                for (objs,) in out]

    assert every_bit(train.take(list(perm))) == every_bit(train)


def test_a_parity_block_allocates_o_of_q():
    # 2000 queries against two models and n = 20,000 rows: beyond the cache
    # and its prediction block, the grouped block select holds a few
    # q-vectors (ten of them make one n-vector), never an n-vector.
    n, q = 20_000, 2000
    train = gen_pathological_abc(n, 0.25, 0.05, seed=6, tau=1000.0)
    cache = build_loo_cache(train, ParityAdversary(1000.0))
    block = _Block(gen_pathological_abc(q, 0.25, 0.05, seed=7).features, None)
    for spec in (IntervalSpec(0.25, inflation_eps=0.01),
                 IntervalSpec(0.25, alpha_lo=0.1, alpha_hi=0.15)):
        # Predicts the block and sorts the residuals, once per mode.
        _cv_plus_block(cache, None, spec, block)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lower, upper = _cv_plus_block(cache, None, spec, block)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert lower.shape == upper.shape == (q,)
        assert peak < 8 * n


def test_a_five_fold_block_allocates_o_of_q():
    # Five folds of 6000 rows take the grouped path, which eliminates over
    # more than two groups; a block of _POINT_BLOCK // 5 queries holds a few
    # (5, q) arrays, never an n-vector.
    n, folds = 30_000, 5
    rng = derive_rng(8, "five-fold")
    cache = build_loo_cache(Dataset(rng.standard_normal((n, 1)), rng.standard_normal(n)),
                            MEAN, folds)
    block = _Block(rng.standard_normal((_POINT_BLOCK // folds, 1)), None)
    for spec in (IntervalSpec(0.1, inflation_eps=0.01),
                 IntervalSpec(0.25, alpha_lo=0.05, alpha_hi=0.2)):
        _cv_plus_block(cache, None, spec, block)  # predicts the block, sorts the residuals
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lower, upper = _cv_plus_block(cache, None, spec, block)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert lower.shape == upper.shape == (_POINT_BLOCK // folds,)
        assert peak < 8 * n


def test_a_buffer_block_holds_about_point_block_candidates():
    # 500 leave-one-out models of 500 rows: cv+ takes the buffer path. The
    # (q, n) candidate matrix of 200 queries would be 100,000 cells; the
    # block is filled a few rows at a time instead.
    rng = derive_rng(3, "buffer-block")
    train = Dataset(rng.standard_normal((500, 20)), rng.standard_normal(500))
    cache = build_loo_cache(train, MinNormOLS())
    block = _Block(rng.standard_normal((200, 20)), None)
    spec = IntervalSpec(0.1)
    _cv_plus_block(cache, None, spec, block)  # predicts the block, computes |residuals|
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _cv_plus_block(cache, None, spec, block)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * _POINT_BLOCK


def test_a_parity_cache_build_writes_residuals_in_place():
    # The residuals overwrite the in-sample predictions, so the build never
    # holds both n-vectors.
    n = 20_000
    train = gen_pathological_abc(n, 0.25, 0.05, seed=6, tau=1000.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = build_loo_cache(train, ParityAdversary(1000.0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * 8 * n
    assert not cache.signed_residuals.flags.writeable


class TestCrossConformalSweep:
    def brute_membership(self, cache, alpha, x, tau, y):
        m = cache.predictions_at(x)
        r = cache.residuals
        dist = np.abs(y - m)
        strict = int(np.count_nonzero(dist < r))
        equal = int(np.count_nonzero(dist == r))
        return Fraction(tau) * (1 + equal) + strict > Fraction(alpha) * (cache.n + 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_sweep_matches_pointwise_predicate(self, seed):
        train, x, reg = random_case(seed)
        cache = build_loo_cache(train, reg)
        rng = derive_rng(seed, "sweep")
        alpha = float(rng.choice([0.1, 0.25, 0.4]))
        tau = float(rng.random())
        s = cross_conformal_set(cache, IntervalSpec(alpha), x, tau)

        breaks = np.unique(
            np.concatenate([cache.predictions_at(x) - cache.residuals,
                            cache.predictions_at(x) + cache.residuals])
        )
        lo, hi = breaks[0] - 1.0, breaks[-1] + 1.0
        grid = np.linspace(lo, hi, 2001)
        grid = grid[~np.isin(grid, breaks)]  # boundaries belong to the closure
        for y in grid:
            assert s.contains(float(y)) == self.brute_membership(
                cache, alpha, x, tau, float(y)
            )

    def test_tau_validation(self, worked_cache):
        with pytest.raises(ConfigError, match="tau"):
            cross_conformal_set(worked_cache, IntervalSpec(0.25), X_PROBE, 1.5)

    @pytest.mark.parametrize("tau", ["0.5", True, 0.5 + 0j, math.nan], ids=repr)
    def test_tau_must_be_a_real_number(self, worked_cache, tau):
        with pytest.raises(ConfigError, match="tau must be a real number"):
            cross_conformal_set(worked_cache, IntervalSpec(0.25), X_PROBE, tau)

    def test_float32_tau_is_read_exactly(self, worked_cache):
        spec = IntervalSpec(0.25)
        assert cross_conformal_set(worked_cache, spec, X_PROBE, np.float32(0.5)) == \
            cross_conformal_set(worked_cache, spec, X_PROBE, 0.5)


def exact(level) -> Fraction:
    """The exact value of a level; a float32 widens to a float exactly."""
    return Fraction(float(level) if isinstance(level, np.floating) else level)


class TestStrictNeeded:
    """The integer threshold of the cross-conformal rank test against the
    rational predicate of the pointwise oracle below."""

    @pytest.mark.parametrize("alpha", [0, 1, 1 / 3, 0.1, 0.25, Fraction(2, 7), Decimal("0.1"),
                                       np.float32(0.1), np.int64(0)], ids=repr)
    def test_matches_the_rational_predicate(self, alpha):
        taus = [0, 1, Fraction(1, 3), np.float32(0.3)] + derive_rng(7, "need-tau").random(6).tolist()
        for n in range(1, 41):
            threshold = exact(alpha) * (n + 1)
            for tau in taus:
                need = predint.intervals._strict_needed(n, alpha, tau)
                tau_frac = exact(tau)
                for equal in range(n + 1):
                    strict = need(equal)
                    # strict cases accept the cell and one fewer do not
                    assert tau_frac * (1 + equal) + strict > threshold, (n, tau, equal)
                    assert not tau_frac * (1 + equal) + strict - 1 > threshold, (n, tau, equal)


def reference_cross_conformal_set(cache, spec, x, tau):
    """The cross-conformal set from the pointwise predicate on every cell: each
    open gap between consecutive distinct breakpoints m_i +- R_i and each
    breakpoint, tested against all n rows in exact rationals, O(n^2)."""
    m = cache.predictions_at(x)
    r = cache.residuals
    lo_pts, hi_pts = m - r, m + r
    tau_frac = Fraction(tau)
    threshold = Fraction(spec.alpha) * (cache.n + 1)

    def accepted_at_point(y):
        dist = np.abs(y - m)
        strict = int(np.count_nonzero(dist < r))
        equal = int(np.count_nonzero(dist == r))
        return tau_frac * (1 + equal) + strict > threshold

    def accepted_on_gap(left, right):
        # Strictly between consecutive breakpoints, |y - m_i| < R_i iff
        # lo_i <= left and hi_i >= right; no equality cases occur.
        strict = int(np.count_nonzero((lo_pts <= left) & (hi_pts >= right)))
        return tau_frac + strict > threshold

    breaks = np.unique(np.concatenate([lo_pts, hi_pts]))
    cells = [(-math.inf, breaks[0], accepted_on_gap(-math.inf, breaks[0]))]
    for i, b in enumerate(breaks):
        cells.append((float(b), float(b), accepted_at_point(float(b))))
        right = breaks[i + 1] if i + 1 < len(breaks) else math.inf
        cells.append((float(b), float(right), accepted_on_gap(float(b), float(right))))
    runs = [list(run) for ok, run in itertools.groupby(cells, key=lambda c: c[2]) if ok]
    return PredictionSet.from_intervals(PredictionInterval(r[0][0], r[-1][1]) for r in runs)


def set_bits(s):
    return [bits(iv) for iv in s.intervals]


class TestCrossConformalOracle:
    """The sorted sweep against the pointwise loop, endpoint bits included."""

    N = 11
    ALPHAS = (0.0, 0.1, 0.5, 1.0)
    TAUS = (0.0, 0.25, 1.0)

    @staticmethod
    def data(kind, n):
        """n training rows and two probes: a fresh point and training row 0.

        ``ties`` rounds everything to 0.1; ``duplicates`` also repeats rows
        verbatim with response 0, so a 1-NN or memorizer fold model predicts
        a duplicated row exactly (R_i = 0, lo_i == hi_i)."""
        rng = derive_rng(n, "cc-oracle", kind)
        X = rng.standard_normal((n + 1, 2))
        y = rng.standard_normal(n + 1)
        if kind != "gaussian":
            X, y = np.round(X, 1), np.round(y, 1)
        if kind == "duplicates":
            X[1:5:2], y[0:4] = X[0:4:2], 0.0
        return Dataset(X[:n], y[:n]), [X[n], X[0]]

    def check(self, cache, probes, alphas, taus):
        for x in probes:
            for alpha in alphas:
                for tau in taus:
                    spec = IntervalSpec(alpha)
                    assert set_bits(cross_conformal_set(cache, spec, x, tau)) == set_bits(
                        reference_cross_conformal_set(cache, spec, x, tau)), (alpha, tau)

    @staticmethod
    def partition(n, k):
        rng = derive_rng(k, "cc-folds")
        return np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])

    @pytest.mark.parametrize("block", [None, 1], ids=["default-blocks", "one-per-block"])
    @pytest.mark.parametrize("k", [2, 3, 10, N])
    @pytest.mark.parametrize("reg", [MEAN, MinNormOLS(), KNN(k=1)], ids=["mean", "ols", "knn"])
    @pytest.mark.parametrize("kind", ["gaussian", "ties", "duplicates"])
    def test_matches_the_pointwise_loop(self, kind, reg, k, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(predint.intervals, "_POINT_BLOCK", block)
        train, probes = self.data(kind, self.N)
        cache = LooCache(train, reg, self.partition(self.N, k))
        self.check(cache, probes, self.ALPHAS, self.TAUS)

    @pytest.mark.parametrize("k", [2, 3, 10, N])
    def test_zero_residuals_count_once(self, k):
        train, probes = self.data("duplicates", self.N)
        for reg in (KNN(k=1), Memorizer(eps=0.5)):
            cache = LooCache(train, reg, self.partition(self.N, k))
            if k == self.N:
                assert np.count_nonzero(cache.residuals == 0.0) >= 2
            self.check(cache, probes, self.ALPHAS, self.TAUS)

    @pytest.mark.parametrize("alpha", [Fraction(2, 7), Decimal("0.1"), Fraction(1, 4)], ids=str)
    def test_exact_levels_and_taus(self, alpha):
        # Levels that are no float, and tau at 0, 1 and random values.
        train, probes = self.data("ties", self.N)
        taus = [0.0, 1.0] + derive_rng(3, "cc-taus").random(3).tolist()
        for k in (3, self.N):
            self.check(LooCache(train, MEAN, self.partition(self.N, k)), probes, [alpha], taus)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_integer_thresholds(self, k):
        # alpha (n + 1) = 2, so alpha (n + 1) - tau (1 + e) is an integer at
        # tau = 0 and 1 for every e, and at tau = 0.25 for e = 3: a cell with
        # strict count exactly at it must be rejected.
        train, probes = self.data("ties", 7)
        for reg in (MEAN, MinNormOLS(), KNN(k=1)):
            cache = LooCache(train, reg, self.partition(7, k))
            self.check(cache, probes, [0.25], self.TAUS)

    def test_overflowing_breakpoints(self):
        # m_i + R_i overflows to inf, so the last gap is (inf, inf), which the
        # sweep's rank counts get wrong without changing the set.
        train = Dataset([[0.0], [1.0], [2.0]], [1e308, 1.7e308, 1.6e308])
        cache, x = build_loo_cache(train, KNN(k=1)), np.array([1.5])
        with np.errstate(over="ignore"):
            assert np.isinf(cache.predictions_at(x) + cache.residuals).any()
            self.check(cache, [x], self.ALPHAS, self.TAUS)


class TestFullConformal:
    def test_membership_matches_direct_refits(self, worked):
        grid = GridSpec(num_points=41, lower=-4.0, upper=4.0)
        spec = IntervalSpec(0.25)
        s = full_conformal_set(worked, MEAN, spec, X_PROBE, grid)
        for y in np.linspace(-4.0, 4.0, 41):
            aug = Dataset(
                np.vstack([worked.features, X_PROBE]),
                np.append(worked.responses, y),
            )
            model = MEAN.fit(aug)
            resid = np.abs(worked.responses - model.predict_many(worked.features))
            accept = abs(y - model.predict(X_PROBE)) <= upper_quantile(resid, 0.25)
            assert s.contains(float(y)) == accept

    @pytest.mark.parametrize("regressor", [MEAN, MinNormOLS(), Ridge(), KNN(k=2), Memorizer()],
                             ids=lambda r: r.token)
    def test_the_shared_buffer_matches_a_refit_per_candidate(self, regressor):
        # The oracle builds a fresh Dataset for every candidate and fits it.
        data, _ = gen_gaussian_linear(9, 2, seed=4)
        x, spec = np.array([0.3, -1.2]), IntervalSpec(0.2)
        ys = np.linspace(float(data.responses.min()), float(data.responses.max()), 60)
        accepted = np.zeros(len(ys), dtype=bool)
        for idx, y in enumerate(ys):
            model = regressor.fit(Dataset(np.vstack([data.features, x]),
                                          np.append(data.responses, y)))
            resid = np.abs(data.responses - model.predict_many(data.features))
            accepted[idx] = abs(y - model.predict(x)) <= upper_quantile(resid, spec.alpha)
        want = predint.intervals._runs_to_set(accepted, ys, ys)
        got = full_conformal_set(data, regressor, spec, x, GridSpec(num_points=60))
        assert [endpoints(iv) for iv in got.intervals] == [endpoints(iv) for iv in want.intervals]

    def test_a_query_builds_no_dataset(self, worked, monkeypatch):
        built = []
        own = Dataset._own
        monkeypatch.setattr(Dataset, "_own", lambda self, *a: built.append(1) or own(self, *a))
        full_conformal_set(worked, MinNormOLS(), IntervalSpec(0.25), X_PROBE)
        assert built == []

    @pytest.mark.parametrize("grid", [GridSpec(50, -1e308, 1e308), GridSpec(50, np.float64(-1e308),
                                                                               np.float64(1e308))])
    def test_a_grid_whose_span_overflows_is_a_config_error(self, worked, grid):
        # np.linspace overflowed with a RuntimeWarning, then every candidate
        # failed the Dataset's finiteness check with a DataError.
        with pytest.raises(ConfigError, match="grid"):
            full_conformal_set(worked, MEAN, IntervalSpec(0.25), X_PROBE, grid)

    def test_interpolating_regressor_accepts_the_whole_grid(self):
        # A 1-NN rule fits the augmented test pair exactly, so every grid
        # candidate is accepted and the set is one interval spanning the grid.
        data, _ = gen_gaussian_linear(8, 1, seed=3)
        s = full_conformal_set(
            data, KNN(k=1), IntervalSpec(0.25), np.array([9.9]),
            GridSpec(num_points=50, lower=-2.0, upper=2.0),
        )
        assert [endpoints(iv) for iv in s.intervals] == [(-2.0, 2.0)]

    def test_constant_response_collapses_to_a_point(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [5.0, 5.0, 5.0, 5.0])
        s = full_conformal_set(data, MEAN, IntervalSpec(0.25), np.array([1.5]))
        assert [endpoints(iv) for iv in s.intervals] == [(5.0, 5.0)]

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(num_points=1)
        with pytest.raises(ConfigError):
            GridSpec(num_points=10, lower=2.0, upper=1.0)
        for bound in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="finite"):
                GridSpec(lower=bound)
            with pytest.raises(ConfigError, match="finite"):
                GridSpec(upper=bound)


def test_contains_dispatch(worked_cache):
    iv = jackknife_plus(worked_cache, IntervalSpec(0.25), X_PROBE)
    s = cross_conformal_set(worked_cache, IntervalSpec(0.25), X_PROBE, 1.0)
    assert iv.contains(0.0) and s.contains(0.0)
    assert not iv.contains(100.0) and not s.contains(100.0)
