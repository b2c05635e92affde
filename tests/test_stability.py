"""Stability estimation and the coverage floors derived from it."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from predint import (
    KNN,
    ConfigError,
    ConstantMean,
    Memorizer,
    StabilityEstimate,
    coverage_lower_bounds,
    estimate_stability,
    gen_gaussian_linear,
)


def gaussian_sampler(d):
    return lambda size, seed: gen_gaussian_linear(size, d, seed)[0]


class TestEstimate:
    def test_rate_and_se_arithmetic(self):
        est = StabilityEstimate("out_of_sample", 0.0, 10, 100, 25)
        assert est.nu_hat == 0.25
        assert est.se == math.sqrt(0.25 * 0.75 / 100)
        assert StabilityEstimate("in_sample", 0.0, 10, 50, 0).se == 0.0

    def test_mean_regressor_is_stable_at_generous_epsilon(self):
        # Dropping one of 50 rows moves the training mean by |y_0 - mean|/49,
        # far below 10 for Gaussian responses.
        est = estimate_stability(
            ConstantMean(), gaussian_sampler(2), n=50, epsilon=10.0, trials=100
        )
        assert est.violations == 0

    def test_memorizer_is_maximally_unstable_in_sample(self):
        # The full fit memorizes the dropped row (predicts 0 there); the
        # refit sees it as fresh and predicts (1 + eps) * 29. Every trial
        # violates any epsilon below that gap.
        est = estimate_stability(
            Memorizer(eps=1.0),
            gaussian_sampler(2),
            n=30,
            epsilon=0.0,
            kind="in_sample",
            trials=50,
        )
        assert est.nu_hat == 1.0

    def test_knn_kind_contrast(self):
        # Out of sample, dropping row 0 only matters when it is one of the 3
        # nearest neighbours of the fresh point (rate about 3/30). In sample
        # the evaluation point IS the dropped row, so the prediction moves
        # essentially always.
        out = estimate_stability(
            KNN(k=3), gaussian_sampler(2), n=30, epsilon=0.0, trials=400
        )
        assert 0.0 < out.nu_hat <= 0.145
        inn = estimate_stability(
            KNN(k=3),
            gaussian_sampler(2),
            n=30,
            epsilon=0.0,
            kind="in_sample",
            trials=200,
        )
        assert inn.nu_hat >= 0.9

    def test_determinism(self):
        kw = dict(n=12, epsilon=0.05, trials=30, seed=7)
        a = estimate_stability(KNN(k=2), gaussian_sampler(1), **kw)
        b = estimate_stability(KNN(k=2), gaussian_sampler(1), **kw)
        assert a == b

    def test_validation(self):
        sampler = gaussian_sampler(1)
        with pytest.raises(ConfigError, match="kind"):
            estimate_stability(ConstantMean(), sampler, 5, 0.1, kind="weird")
        with pytest.raises(ConfigError, match="epsilon"):
            estimate_stability(ConstantMean(), sampler, 5, -0.1)
        with pytest.raises(ConfigError, match="n must be"):
            estimate_stability(ConstantMean(), sampler, 1, 0.1)
        with pytest.raises(ConfigError, match="trials"):
            estimate_stability(ConstantMean(), sampler, 5, 0.1, trials=0)
        short = lambda size, seed: gen_gaussian_linear(size - 1, 1, seed)[0]
        with pytest.raises(ConfigError, match="wrong number of rows"):
            estimate_stability(ConstantMean(), short, 5, 0.1, trials=1)

    @pytest.mark.parametrize("returned", [0, None, ([[0.0]] * 6, [0.0] * 6)],
                             ids=["int", "none", "tuple"])
    def test_sampler_must_return_a_dataset(self, returned):
        # An int raised AttributeError: 'int' object has no attribute 'n'.
        with pytest.raises(ConfigError, match="sampler must return a Dataset"):
            estimate_stability(ConstantMean(), lambda size, seed: returned, 5, 0.1, trials=1)


class TestCoverageLowerBounds:
    def test_worked_values(self):
        b = coverage_lower_bounds(alpha=0.1, nu=0.0, n=100, k_folds=10)
        assert b["jackknife_plus"] == 0.8
        assert b["jackknife_minmax"] == 0.9
        assert b["split_conformal"] == 0.9
        # K-fold slack: min(2 * 0.9 / 11, 0.9 / 11) takes the second branch.
        assert b["cv_plus"] == 0.8 - 0.9 / 11.0
        assert b["cv_plus_floor"] == 0.8 - math.sqrt(2.0 / 100)
        # At nu = 0 the stability terms vanish.
        assert b["jackknife_eps_inflated"] == 0.9
        assert b["jackknife_plus_2eps_inflated"] == 0.9
        assert b["naive_2eps_inflated"] == 0.9
        # An exact level gives the floors of its nearest float.
        for alpha in (Fraction(1, 10), Decimal("0.1")):
            assert coverage_lower_bounds(alpha, 0, 100, 10) == b

    def test_stability_terms_scale_with_sqrt_nu(self):
        b = coverage_lower_bounds(alpha=0.1, nu=0.01, n=100, k_folds=10)
        assert b["jackknife_eps_inflated"] == pytest.approx(0.9 - 0.2)
        assert b["jackknife_plus_2eps_inflated"] == pytest.approx(0.9 - 0.4)
        assert b["naive_2eps_inflated"] == b["jackknife_plus_2eps_inflated"]

    def test_loo_folds_recover_the_jackknife_plus_bound(self):
        b = coverage_lower_bounds(alpha=0.1, nu=0.0, n=50, k_folds=50)
        assert b["cv_plus"] == b["jackknife_plus"] == 0.8

    def test_cv_slack_never_exceeds_the_floor_term(self):
        for n in (2, 3, 5, 10, 16, 100, 243, 500):
            for k in range(1, n + 1):
                b = coverage_lower_bounds(0.1, 0.0, n, k)
                assert b["cv_plus"] >= b["cv_plus_floor"] - 1e-12

    def test_more_unstable_means_weaker_floors(self):
        keys = (
            "jackknife_eps_inflated",
            "jackknife_plus_2eps_inflated",
            "naive_2eps_inflated",
        )
        prev = coverage_lower_bounds(0.1, 0.0, 100, 10)
        for nu in (0.001, 0.01, 0.1, 1.0):
            cur = coverage_lower_bounds(0.1, nu, 100, 10)
            for key in keys:
                assert cur[key] < prev[key]
            prev = cur

    def test_validation(self):
        with pytest.raises(ConfigError, match="alpha"):
            coverage_lower_bounds(1.5, 0.0, 10, 2)
        with pytest.raises(ConfigError, match="nu"):
            coverage_lower_bounds(0.1, -0.2, 10, 2)
        with pytest.raises(ConfigError, match="k_folds"):
            coverage_lower_bounds(0.1, 0.0, 10, 0)
        with pytest.raises(ConfigError, match="k_folds"):
            coverage_lower_bounds(0.1, 0.0, 10, 11)
        # Checked at the boundary: a string raised a raw TypeError, and a
        # bool level or a float size was accepted.
        for args, message in [
            (("0.1", 0.0, 10, 2), "alpha must be a real number"),
            ((True, 0.0, 10, 2), "alpha must be a real number"),
            ((0.1, "0", 10, 2), "nu must be a real number"),
            ((0.1, 0.0, 10.5, 2), "n must be an integer"),
            ((0.1, 0.0, 10, 2.0), "k_folds must be an integer"),
        ]:
            with pytest.raises(ConfigError, match=message):
                coverage_lower_bounds(*args)
