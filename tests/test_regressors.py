"""Regression algorithms: exact hand solutions, symmetry, and edge conventions.

The symmetry tests assert bitwise equality, not approximate equality. Every
algorithm canonically sorts its training rows before fitting, so a permuted
training set must produce the identical sequence of float operations.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import predint.intervals
import predint.regressors
from predint import (
    KNN,
    REGRESSOR_TOKENS,
    ConfigError,
    ConstantMean,
    DataError,
    Dataset,
    IntervalSpec,
    LooCache,
    Memorizer,
    MinNormOLS,
    ParityAdversary,
    Regressor,
    Ridge,
    build_loo_cache,
    canonical_order,
    gen_gaussian_linear,
    gen_pathological_abc,
    jackknife_plus,
    make_regressor,
)
from predint.regressors import _CLASSES, _SETTINGS
from helpers import derive_rng, knn_oracle


def gaussian(n, d, seed=0):
    return gen_gaussian_linear(n, d, seed)[0]


class RefitParity(ParityAdversary):
    """The parity regressor with its fold shortcut replaced by the reference refits."""

    fit_folds = Regressor.fit_folds


class TestMinNormOLS:
    def test_square_system(self):
        data = Dataset([[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
        model = MinNormOLS().fit(data)
        assert model.predict([1.0, 1.0]) == pytest.approx(5.0, rel=1e-12)
        assert model.predict([1.0, 0.0]) == pytest.approx(2.0, rel=1e-12)

    def test_minimum_norm_solution(self):
        # One equation, two unknowns: a + b = 2. The min-norm solution is
        # (1, 1); any other solution (1+t, 1-t) has strictly larger norm.
        model = MinNormOLS().fit(Dataset([[1.0, 1.0]], [2.0]))
        np.testing.assert_allclose(model.coef, [1.0, 1.0], atol=1e-12)

    def test_matches_pseudoinverse(self):
        data = gaussian(5, 8, seed=2)
        model = MinNormOLS().fit(data)
        order = canonical_order(data.features, data.responses)
        expected = np.linalg.pinv(data.features[order]) @ data.responses[order]
        np.testing.assert_allclose(model.coef, expected, atol=1e-10)

    def test_residual_orthogonality(self):
        data = gaussian(12, 3, seed=3)
        model = MinNormOLS().fit(data)
        resid = data.responses - model.predict_many(data.features)
        np.testing.assert_allclose(data.features.T @ resid, 0.0, atol=1e-9)

    def test_interpolates_when_overparameterized(self):
        data = gaussian(6, 10, seed=4)
        model = MinNormOLS().fit(data)
        np.testing.assert_allclose(
            model.predict_many(data.features), data.responses, atol=1e-9
        )


class TestRidge:
    def test_one_point_closed_form(self):
        # X = [[1]], y = [2], lambda = sigma_max^2 = 1. Stationarity gives
        # (X'X + 2 lambda) b = X'y, i.e. 3b = 2.
        model = Ridge(lambda_rel=1.0, intercept=False).fit(Dataset([[1.0]], [2.0]))
        assert model.predict([1.0]) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_zero_penalty_is_least_squares(self):
        data = gaussian(30, 3, seed=5)
        ridge = Ridge(lambda_rel=0.0, intercept=False).fit(data)
        ols = MinNormOLS().fit(data)
        probes = gaussian(10, 3, seed=6).features
        np.testing.assert_allclose(
            ridge.predict_many(probes), ols.predict_many(probes), atol=1e-10
        )

    def test_huge_penalty_collapses_to_mean(self):
        data = gaussian(40, 2, seed=7)
        model = Ridge(lambda_rel=1e8, intercept=True).fit(data)
        y_bar = float(np.mean(data.responses))
        assert model.predict([0.3, -1.2]) == pytest.approx(y_bar, abs=1e-3)

    def test_solution_minimizes_the_objective(self):
        data = gaussian(25, 4, seed=8)
        reg = Ridge(lambda_rel=0.05, intercept=False)
        model = reg.fit(data)
        X, y = data.features, data.responses
        lam = reg.lambda_rel * float(np.linalg.norm(X, 2)) ** 2

        def objective(b):
            r = y - X @ b
            return float(r @ r + 2.0 * lam * (b @ b))

        base = objective(model.coef)
        rng = derive_rng(99, "ridge-perturb")
        for _ in range(20):
            assert base <= objective(model.coef + 1e-4 * rng.standard_normal(4)) + 1e-12

    def test_intercept_is_not_penalized(self):
        # Shifting every response by a constant must shift predictions by
        # exactly that constant; a penalized intercept would shrink it.
        data = gaussian(20, 3, seed=9)
        shifted = Dataset(data.features, data.responses + 100.0)
        reg = Ridge(lambda_rel=0.1, intercept=True)
        a = reg.fit(data)
        b = reg.fit(shifted)
        x = np.array([0.5, -0.5, 2.0])
        assert b.predict(x) - a.predict(x) == pytest.approx(100.0, rel=1e-10)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigError):
            Ridge(lambda_rel=-1.0)


class TestKNN:
    def test_two_nearest_average(self):
        data = Dataset([[0.0], [2.0], [10.0]], [4.0, 6.0, 100.0])
        model = KNN(k=2).fit(data)
        assert model.predict([1.0]) == 5.0

    def test_exact_tie_goes_to_lower_canonical_row(self):
        # Rows at x=0 and x=2 are both at distance 1 from the query; the
        # canonical order sorts by feature value, so x=0 wins the tie.
        data = Dataset([[2.0], [0.0]], [6.0, 4.0])
        model = KNN(k=1).fit(data)
        assert model.predict([1.0]) == 4.0

    def test_k_equals_n_matches_mean(self):
        data = gaussian(15, 2, seed=10)
        knn = KNN(k=15).fit(data)
        mean = ConstantMean().fit(data)
        x = [0.1, 0.2]
        assert knn.predict(x) == pytest.approx(mean.predict(x), rel=1e-12)

    def test_k_larger_than_sample_rejected_at_fit(self):
        with pytest.raises(ConfigError, match="exceeds training size"):
            KNN(k=5).fit(gaussian(3, 2))

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            KNN(k=0)


class TestMemorizer:
    def test_zero_on_training_rows_fresh_elsewhere(self):
        data = Dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 6.0])
        model = Memorizer(eps=1.0).fit(data)
        assert model.predict([2.0]) == 0.0
        assert model.predict([4.0]) == 6.0  # (1 + 1) * 3 training rows

    def test_fresh_value_scales_with_eps_and_size(self):
        data = Dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        assert Memorizer(eps=1.0).fit(data).predict([9.9]) == 6.0
        assert Memorizer(eps=0.5).fit(data).predict([9.9]) == 4.5
        bigger = Dataset([[float(i)] for i in range(5)], [0.0] * 5)
        assert Memorizer(eps=1.0).fit(bigger).predict([9.9]) == 10.0

    def test_match_is_bitwise(self):
        data = Dataset([[0.1]], [5.0])
        model = Memorizer(eps=1.0).fit(data)
        assert model.predict([0.1]) == 0.0
        assert model.predict([0.1 + 1e-18]) == 0.0  # rounds back to 0.1
        assert model.predict([0.1 + 1e-16]) != 0.0  # the next double up
        assert model.predict([0.10000001]) != 0.0

    def test_eps_validation(self):
        with pytest.raises(ConfigError):
            Memorizer(eps=0.0)


class TestParityAdversary:
    def test_prediction_formula(self):
        data = Dataset(
            [[2.0, -1.0, 3.0], [1.0, 1.0, 0.5], [0.0, -1.0, -1.0]],
            [0.0, 0.0, 0.0],
        )
        model = ParityAdversary(tau=1.5).fit(data)
        # prod of the B column is (-1)(1)(-1) = 1.
        assert model.predict([2.0, 1.0, 3.0]) == 1.5 * 2.0 * 3.0
        assert model.predict([1.0, -1.0, -2.0]) == -3.0

    def test_dropping_a_negative_row_flips_the_sign(self):
        rows = [[1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 2.0]]
        data = Dataset(rows, [0.0, 0.0, 0.0])
        full = ParityAdversary(tau=1.0).fit(data)
        minus = ParityAdversary(tau=1.0).fit(data.drop([0]))
        x = [1.0, 1.0, 1.0]
        assert full.predict(x) == -minus.predict(x)

    def test_feature_validation(self):
        with pytest.raises(ConfigError, match="3 features"):
            ParityAdversary().fit(Dataset([[1.0, -1.0]], [0.0]))
        with pytest.raises(ConfigError, match="second feature"):
            ParityAdversary().fit(Dataset([[1.0, 0.5, 1.0]], [0.0]))
        with pytest.raises(ConfigError):
            ParityAdversary(tau=math.inf)
        # The leave-one-out shortcut checks the design as the refits would.
        with pytest.raises(ConfigError, match="3 features"):
            build_loo_cache(Dataset([[1.0, -1.0], [1.0, 1.0]], [0.0, 0.0]), ParityAdversary())
        with pytest.raises(ConfigError, match="second feature"):
            build_loo_cache(Dataset([[1.0, 0.5, 1.0], [1.0, 1.0, 1.0]], [0.0, 0.0]),
                            ParityAdversary())

    @pytest.mark.parametrize("shuffled", [False, True], ids=["default", "shuffled"])
    def test_leave_one_out_folds_match_refits_bitwise(self, shuffled):
        tau = 5.0
        train = gen_pathological_abc(40, 0.25, 0.3, seed=9, tau=tau)
        reg = ParityAdversary(tau=tau)
        fold_of = derive_rng(3, "parity-folds").permutation(40) if shuffled else np.arange(40)
        fast = LooCache(train, reg, fold_of)
        refit = LooCache(train, RefitParity(tau=tau), fold_of.copy())
        assert len(fast.models) == 2 and len(refit.models) == 40
        assert fast.k_folds == refit.k_folds == 40
        np.testing.assert_array_equal(fast.signed_residuals, refit.signed_residuals)
        np.testing.assert_array_equal(fast.residuals, refit.residuals)
        probes = gen_pathological_abc(20, 0.25, 0.3, seed=10).features
        assert (probes[:, 0] == 0.0).any() and (probes[:, 0] != 0.0).any()
        for x in probes:
            np.testing.assert_array_equal(fast.predictions_at(x), refit.predictions_at(x))

    def test_implicit_leave_one_out_matches_refits_bitwise(self):
        # With no fold labels each row's sign is B_i * prod(B); negating one
        # B flips the product, so both of its signs are covered.
        tau = 5.0
        drawn = gen_pathological_abc(40, 0.25, 0.3, seed=9, tau=tau)
        flipped = drawn.features.copy()
        flipped[0, 1] = -flipped[0, 1]
        probes = gen_pathological_abc(20, 0.25, 0.3, seed=10).features
        products = set()
        for X in (drawn.features, flipped):
            train = Dataset(X, drawn.responses)
            products.add(float(np.prod(X[:, 1])))
            fast = LooCache(train, ParityAdversary(tau=tau))
            refit = LooCache(train, RefitParity(tau=tau))
            assert len(fast.models) == 2 and fast.k_folds == refit.k_folds == 40
            assert [m.hex() for m in fast.signed_residuals] == \
                [m.hex() for m in refit.signed_residuals]
            for x in probes:
                np.testing.assert_array_equal(fast.predictions_at(x), refit.predictions_at(x))
        assert products == {1.0, -1.0}

    @pytest.mark.parametrize("grouped", [False, True], ids=["buffer", "grouped"])
    def test_jackknife_plus_matches_the_refit_cache(self, grouped, monkeypatch):
        # The shortcut's one-byte model index, on both query paths, against
        # 40 refitted models (an intp index and the buffer path).
        if grouped:
            monkeypatch.setattr(predint.intervals, "_GROUPED_ROWS_PER_MODEL", 1)
        tau = 5.0
        train = gen_pathological_abc(40, 0.25, 0.3, seed=9, tau=tau)
        fast = build_loo_cache(train, ParityAdversary(tau=tau))
        refit = build_loo_cache(train, RefitParity(tau=tau))
        assert fast.model_of.dtype == np.uint8
        specs = [IntervalSpec(0.25, inflation_eps=0.5),
                 IntervalSpec(0.3, alpha_lo=0.1, alpha_hi=0.2)]
        for x in gen_pathological_abc(20, 0.25, 0.3, seed=10).features:
            for spec in specs:
                got, want = jackknife_plus(fast, spec, x), jackknife_plus(refit, spec, x)
                assert (got.lower.hex(), got.upper.hex()) == (want.lower.hex(), want.upper.hex())

    def test_other_partitions_refit(self):
        train = gen_pathological_abc(6, 0.25, 0.3, seed=2, tau=2.0)
        reg = ParityAdversary(tau=2.0)
        x = [1.0, 1.0, 0.5]
        # Three folds of two rows each, dealt two ways; the second leaves
        # folds 3-5 of a K=6 assignment empty, and they get no model.
        for fold_of in (np.array([0, 1, 2, 0, 1, 2]), np.array([0, 0, 1, 1, 2, 2])):
            models, model_of, in_sample = reg.fit_folds(train, fold_of)
            assert len(models) == 3 and model_of.tolist() == fold_of.tolist()
            for j, model in enumerate(models):
                rows = np.flatnonzero(fold_of == j)
                refit = reg.fit(train.drop(rows))
                assert model.predict(x) == refit.predict(x)
                assert in_sample[rows].tobytes() == refit.predict_many(train.features[rows]).tobytes()
        one = Dataset([[1.0, -1.0, 0.5]], [2.0])
        models, model_of, in_sample = reg.fit_folds(one, np.zeros(1, dtype=int))
        assert len(models) == 1 and model_of.tolist() == [0] and in_sample.tolist() == [0.0]
        assert models[0].predict(x) == 0.0  # fitted on no rows: the zero function


BAD_PARTITIONS = {
    "short": [0, 1],
    "2-D": [[0, 1], [2, 3]],
    "negative": [0, 1, -1, 2],
    "float": [0.0, 1.0, 2.0, 3.0],
    "label-n": [0, 1, 2, 4],
}


@pytest.mark.parametrize("fold_of", BAD_PARTITIONS.values(), ids=BAD_PARTITIONS)
def test_partitions_are_checked(fold_of):
    """A fold partition of n rows is n integer labels in range(n); fit_folds
    (the reference loop and parity's shortcut) and LooCache say so by name."""
    train = gen_pathological_abc(4, 0.25, 0.3, seed=5, tau=1.0)
    for reg in (ConstantMean(), ParityAdversary()):
        with pytest.raises(ConfigError, match="fold_of"):
            reg.fit_folds(train, fold_of)
    with pytest.raises(ConfigError, match="fold_of"):
        LooCache(train, ConstantMean(), fold_of)


ALL_REGRESSORS = [
    MinNormOLS(),
    Ridge(lambda_rel=0.01, intercept=True),
    Ridge(lambda_rel=0.01, intercept=False),
    KNN(k=2),
    ConstantMean(),
    Memorizer(eps=0.7),
]


def fold_assignments(n):
    """K = 2, 5 and n dealt in shuffled order, a shuffled leave-one-out, and
    one with empty folds."""
    rng = derive_rng(5, "fold-protocol")
    empty = rng.integers(0, n, size=n)
    assert np.setdiff1d(np.arange(n), empty).size > 0
    return {"K=2": rng.permutation(np.arange(n) % 2), "K=5": rng.permutation(np.arange(n) % 5),
            "K=n": np.arange(n), "loo-shuffled": rng.permutation(n), "empty-folds": empty}


@pytest.mark.parametrize("folds", ["K=2", "K=5", "K=n", "loo-shuffled", "empty-folds"])
@pytest.mark.parametrize(
    "reg", ALL_REGRESSORS + [ParityAdversary(tau=2.7)],
    ids=lambda r: r.token + str(getattr(r, "intercept", "")),
)
def test_fit_folds_is_one_refit_per_fold(reg, folds):
    """Each model is the refit without its rows' fold, bitwise at probe
    points, ``in_sample`` is its prediction at each row, and only folds that
    hold a row get a model (parity's leave-one-out: one per sign in use)."""
    if isinstance(reg, ParityAdversary):
        train = gen_pathological_abc(15, 0.25, 0.3, seed=31, tau=reg.tau)
        probes = gen_pathological_abc(6, 0.25, 0.3, seed=32).features
    else:
        train, probes = gaussian(15, 3, seed=31), gaussian(6, 3, seed=32).features
    fold_of = fold_assignments(train.n)[folds]
    models, model_of, in_sample = reg.fit_folds(train, fold_of.copy())
    for i in range(train.n):
        model = models[model_of[i]]
        assert in_sample[i].tobytes() == np.float64(model.predict(train.features[i])).tobytes()
        refit = reg.fit(train.drop(np.flatnonzero(fold_of == fold_of[i])))
        assert model.predict_many(probes).tobytes() == refit.predict_many(probes).tobytes()
    assert sorted(set(model_of.tolist())) == list(range(len(models)))
    if isinstance(reg, ParityAdversary) and folds in ("K=n", "loo-shuffled"):
        assert len(models) == 2
    else:
        assert len(models) == len(np.unique(fold_of))


def tie_heavy(n, seed):
    """n rows drawn from small grids, so the canonical order meets every kind
    of tie: row 1 repeats row 0, row 3 has row 2's features but another
    response, and row 5 shares row 4's two leading columns only; zeros come
    in both signs. Column 1 is a sign, so the parity regressor can fit it."""
    rng = derive_rng(seed, "tie-heavy")
    X = np.column_stack([rng.choice([0.0, 0.5, 1.0], n), rng.choice([-1.0, 1.0], n),
                         rng.choice([-0.5, -0.0, 0.0, 0.25], n)])
    y = rng.choice([-0.0, 0.0, 1.0, 2.0], n)
    X[1], y[1] = X[0], y[0]
    X[3], y[3] = X[2], y[2] + 1.0
    X[5, :2], X[5, 2] = X[4, :2], X[4, 2] + 1.0
    return Dataset(X, y)


TIED_PARTITIONS = {
    "K=1": lambda n, rng: np.zeros(n, dtype=int),
    "K=2": lambda n, rng: rng.permutation(np.arange(n) % 2),
    "K=5": lambda n, rng: rng.permutation(np.arange(n) % 5),
    "K=n": lambda n, rng: rng.permutation(n),
    "implicit-loo": lambda n, rng: None,
    "empty-folds": lambda n, rng: rng.integers(0, n // 2, size=n),
}


@pytest.mark.parametrize("folds", TIED_PARTITIONS)
@pytest.mark.parametrize(
    "reg", ALL_REGRESSORS + [ParityAdversary(tau=2.7)],
    ids=lambda r: r.token + str(getattr(r, "intercept", "")),
)
def test_fit_folds_matches_refits_on_tied_rows(reg, folds):
    """Fold fits take the rows in the full canonical order restricted to the
    fold's rest; on tied rows each model must still be the refit on
    ``train.drop(fold)``, bitwise at probes and at its own rows."""
    train = tie_heavy(16, seed=7)
    probes = np.vstack([train.features, tie_heavy(6, seed=8).features])
    fold_of = TIED_PARTITIONS[folds](train.n, derive_rng(9, "tied-folds"))
    labels = np.arange(train.n) if fold_of is None else fold_of
    models, model_of, in_sample = reg.fit_folds(train, fold_of)
    for i in range(train.n):
        refit = reg.fit(train.drop(np.flatnonzero(labels == labels[i])))
        model = models[model_of[i]]
        assert model.predict_many(probes).tobytes() == refit.predict_many(probes).tobytes()
        assert in_sample[i].tobytes() == np.float64(refit.predict(train.features[i])).tobytes()


@pytest.mark.parametrize("reg", ALL_REGRESSORS, ids=lambda r: r.token + str(getattr(r, "intercept", "")))
def test_a_leave_one_out_cache_sorts_once_and_builds_no_dataset(reg, monkeypatch):
    calls = {"canonical_order": 0, "Dataset": 0}

    def count(name, inner):
        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    train = tie_heavy(12, seed=42)
    monkeypatch.setattr(predint.regressors, "canonical_order",
                        count("canonical_order", canonical_order))
    monkeypatch.setattr(Dataset, "_own", count("Dataset", Dataset._own))
    build_loo_cache(train, reg)
    assert calls == {"canonical_order": 1, "Dataset": 0}


def test_no_regressor_overrides_fit():
    """``_fit`` is the one training hook: fold and pair fits reach it without
    ``fit``, so an override of ``fit`` would train those differently."""
    assert [cls for cls in _CLASSES.values() if cls.fit is not Regressor.fit] == []


@pytest.mark.parametrize("b", [1.0, -1.0])
def test_parity_leave_one_out_with_one_sign(b):
    """With every leave-one-out product of one sign, the shortcut returns the
    one model that sign gives, as the refits do."""
    train = Dataset([[1.5, b, 2.0], [-0.5, b, 1.0], [2.0, b, -3.0], [1.0, b, 0.5]], np.zeros(4))
    reg = ParityAdversary(tau=3.0)
    models, model_of, in_sample = reg.fit_folds(train, np.arange(4))
    assert len(models) == 1 and model_of.tolist() == [0, 0, 0, 0]
    assert models[0].sign_product == b  # prod(B) / B_i over four equal signs
    refits = Regressor.fit_folds(reg, train, np.arange(4))
    assert in_sample.tobytes() == refits[2].tobytes()


@pytest.mark.parametrize("reg", ALL_REGRESSORS, ids=lambda r: r.token + str(getattr(r, "intercept", "")))
def test_fit_is_permutation_invariant_bitwise(reg):
    data = gaussian(12, 3, seed=21)
    probes = gaussian(5, 3, seed=22).features
    baseline = reg.fit(data).predict_many(probes)
    rng = derive_rng(0, "perm")
    for _ in range(8):
        perm = rng.permutation(data.n)
        shuffled = data.take(perm)
        assert np.array_equal(reg.fit(shuffled).predict_many(probes), baseline)


def test_parity_fit_is_permutation_invariant_bitwise():
    data = gen_pathological_abc(30, alpha=0.25, gamma=0.1, seed=23)
    reg = ParityAdversary(tau=2.0)
    probes = gen_pathological_abc(5, alpha=0.25, gamma=0.1, seed=24).features
    baseline = reg.fit(data).predict_many(probes)
    rng = derive_rng(0, "perm-parity")
    for _ in range(8):
        shuffled = data.take(rng.permutation(data.n))
        assert np.array_equal(reg.fit(shuffled).predict_many(probes), baseline)


@pytest.mark.parametrize(
    "reg", ALL_REGRESSORS + [ParityAdversary(tau=2.7)],
    ids=lambda r: r.token + str(getattr(r, "intercept", "")),
)
def test_predict_many_is_the_row_loop(reg):
    if isinstance(reg, ParityAdversary):
        data = gen_pathological_abc(10, alpha=0.25, gamma=0.1, seed=25)
    else:
        data = gaussian(10, 3, seed=25)
    model = reg.fit(data)
    probes = gaussian(4, 3, seed=26).features
    batch = model.predict_many(probes)
    singles = np.array([model.predict(row) for row in probes])
    assert np.array_equal(batch, singles)


def integer_ties(seed):
    """30 training rows and 12 queries of small integers, with many tied rows
    and distances; column 1 is a sign, so the parity regressor can fit them.
    The queries repeat 6 training rows and add 6 fresh ones."""
    rng = derive_rng(seed, "integer-ties")
    X = rng.integers(-2, 3, size=(36, 3)).astype(float)
    X[:, 1] = np.where(X[:, 1] > 0, 1.0, -1.0)
    y = rng.integers(-3, 4, size=30).astype(float)
    return Dataset(X[:30], y), np.vstack([X[30:], X[:6]])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "reg", ALL_REGRESSORS + [ParityAdversary(tau=2.7)],
    ids=lambda r: r.token + str(getattr(r, "intercept", "")),
)
def test_a_row_has_the_same_bits_alone_and_in_any_block(reg, seed):
    """``predict(x)`` is ``predict_many``'s row, and cutting the queries into
    blocks of any size changes no bit of any row."""
    train, queries = integer_ties(seed)
    model = reg.fit(train)
    whole = [v.hex() for v in model.predict_many(queries).tolist()]
    assert [model.predict(x).hex() for x in queries] == whole
    for size in range(1, len(queries)):
        blocks = [model.predict_many(queries[i:i + size]) for i in range(0, len(queries), size)]
        assert [v.hex() for v in np.concatenate(blocks).tolist()] == whole, size


@pytest.mark.parametrize(
    "reg", ALL_REGRESSORS + [ParityAdversary(tau=2.7)],
    ids=lambda r: r.token + str(getattr(r, "intercept", "")),
)
def test_points_of_the_wrong_shape_are_a_data_error(reg):
    """Every model checks its points' shape in ``predict_many``, and so in
    ``predict``, with one DataError wording; a parity model reads columns 0
    and 2 only, so 4 columns are refused, not answered."""
    model = reg.fit(integer_ties(0)[0])
    wrong = [(model.predict_many, np.ones(shape), shape) for shape in [(2, 2), (2, 4), (3,)]]
    wrong += [(model.predict, np.ones(d), (1, d)) for d in (2, 4)]
    for call, points, shape in wrong:
        want = f"query points must be a 2-D array with 3 columns, got shape {shape}"
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            call(points)


@pytest.mark.parametrize("reg", ALL_REGRESSORS[:3], ids=lambda r: r.token + str(getattr(r, "intercept", "")))
def test_linear_predictions_agree_with_the_dot_product(reg):
    """The row sums against ``np.dot(x, coef) + intercept``, within 1e-12 of
    the size of the summed terms."""
    for seed in (0, 1):
        train, queries = integer_ties(seed)
        model = reg.fit(train)
        for x, got in zip(queries, model.predict_many(queries).tolist()):
            want = float(np.dot(x, model.coef) + model.intercept)
            scale = float(np.abs(x * model.coef).sum()) + abs(model.intercept)
            assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("chunk", [None, 1, 100], ids=["default", "one-row", "few-rows"])
@pytest.mark.parametrize("seed", range(4))
def test_knn_predictions_are_the_row_loop_where_ties_decide(seed, chunk, monkeypatch):
    """A chunk of queries has the bits of the per-row loop on small-integer
    features: duplicated training rows, and exact distance ties at the k-th
    neighbour, so the stable order picks the neighbours. ``chunk`` sets the
    (query, row) pairs of a chunk, so chunks hold one row or a few."""
    if chunk is not None:
        monkeypatch.setattr(predint.regressors, "_POINT_BLOCK", chunk)
    rng = derive_rng(seed, "knn-ties")
    for n, d in ((8, 1), (12, 2), (40, 3), (25, 5)):
        base = rng.integers(-2, 3, size=(n, d)).astype(float)
        X = np.vstack([base, base[: n // 2]])
        y = rng.normal(size=len(X))  # distinct, so which tied row is picked shows
        queries = np.vstack([X[:4], rng.integers(-2, 3, size=(16, d)).astype(float)])
        dist2 = np.sort(((queries[:, None] - X) ** 2).sum(axis=2), axis=1)
        for k in range(1, min(7, len(X) - 1) + 1):
            assert (dist2[:, k - 1] == dist2[:, k]).any(), (n, d, k)  # a tie at the k-th
            model = KNN(k=k).fit(Dataset(X, y))
            assert model.predict_many(queries).tobytes() == knn_oracle(model, queries).tobytes()


def test_overflowing_knn_distances_are_a_data_error():
    model = KNN(k=1).fit(Dataset([[1e308], [0.0]], [0.0, 1.0]))
    with pytest.raises(DataError, match="knn distances overflow"):
        model.predict_many(np.array([[-1e308]]))


@pytest.mark.parametrize("reg", ALL_REGRESSORS + [ParityAdversary(tau=2.0)],
                         ids=lambda r: r.token + str(getattr(r, "intercept", "")))
def test_empty_fit_is_the_zero_function(reg):
    # A LinearModel with zero coefficients: +0.0 at every row, as the fill
    # of the constant model it replaced, negative and -0.0 features included.
    empty = Dataset(np.empty((0, 3)), np.empty(0))
    model = reg.fit(empty)
    assert model.predict([1.0, 2.0, 3.0]) == 0.0
    probes = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0], [-0.0, -0.0, -0.0], [0.0, -5.0, 2.5]])
    for model in (model, reg._fit_rows(probes, np.ones(4), np.arange(0))):
        assert type(model) is predint.regressors.LinearModel
        assert model.predict_many(probes).tobytes() == np.full(len(probes), 0.0).tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_the_mean_fit_is_a_linear_model_with_the_mean_everywhere(seed):
    # The bits of the constant model it replaced: np.full of float(np.mean(y)).
    train, queries = integer_ties(seed)
    queries = np.vstack([queries, -np.abs(queries), np.zeros((1, 3)), np.full((1, 3), -0.0)])
    for rows in (train, train.head(1), Dataset(train.features, np.zeros(train.n))):
        model = ConstantMean().fit(rows)
        assert type(model) is predint.regressors.LinearModel
        assert not model.coef.any() and model.coef.shape == (3,)
        want = np.full(len(queries), float(np.mean(rows.responses)))
        assert model.predict_many(queries).tobytes() == want.tobytes()


def test_the_mean_of_negative_zeros_is_positive_zero_beside_a_non_negative_feature():
    # The one input where the linear form can move a bit: x * 0.0 is +0.0 for
    # x >= +0.0, and -0.0 + +0.0 is +0.0, so a -0.0 mean gives +0.0 at such
    # rows where the constant model gave -0.0. (numpy 2's mean of -0.0s is
    # +0.0 already, and so is its row sum of -0.0 products.)
    model = ConstantMean().fit(Dataset([[1.0, -1.0], [2.0, 3.0]], [-0.0, -0.0]))
    got = model.predict_many(np.array([[-1.0, 0.0], [1.0, 2.0], [-1.0, -2.0], [-0.0, -3.0]]))
    assert not got.any()
    assert [math.copysign(1.0, v) for v in got[:2].tolist()] == [1.0, 1.0]


def test_canonical_order_sorts_by_features_then_response():
    X = np.array([[1.0, 0.0], [0.0, 5.0], [1.0, -1.0], [0.0, 5.0]])
    y = np.array([9.0, 2.0, 1.0, 0.0])
    order = canonical_order(X, y).tolist()
    # Sorted rows: (0,5,y=0), (0,5,y=2), (1,-1), (1,0).
    assert order == [3, 1, 2, 0]


class TestFactory:
    def test_tokens_round_trip(self):
        assert make_regressor("ols").token == "ols"
        assert make_regressor("ridge", ridge_lambda=0.5).lambda_rel == 0.5
        assert make_regressor("ridge", intercept=False).intercept is False
        assert make_regressor("knn", knn_k=3).k == 3
        assert make_regressor("memorizer", memorizer_eps=0.2).eps == 0.2
        assert make_regressor("parity", parity_tau=4.0).tau == 4.0
        assert make_regressor("mean").token == "mean"

    def test_unknown_token(self):
        with pytest.raises(ConfigError, match="unknown regressor"):
            make_regressor("boosting")

    def test_every_regressor_class_has_a_token(self):
        classes = {cls for cls in vars(predint.regressors).values()
                   if isinstance(cls, type) and issubclass(cls, Regressor) and cls is not Regressor}
        assert set(_CLASSES.values()) == classes
        assert [make_regressor(token).token for token in REGRESSOR_TOKENS] == list(REGRESSOR_TOKENS)

    def test_every_setting_names_a_field_of_its_class(self):
        for name, (token, field) in _SETTINGS.items():
            assert field in {f.name for f in dataclasses.fields(_CLASSES[token])}, name

    def test_settings_of_other_regressors_are_ignored(self):
        assert make_regressor("ols", knn_k=0, intercept=False) == MinNormOLS()

    @pytest.mark.parametrize("setting", ["ridge_lamda", "k", "lambda_rel"])
    def test_unknown_setting_is_a_config_error(self, setting):
        with pytest.raises(ConfigError, match=f"unknown regressor setting.*{setting}"):
            make_regressor("ridge", **{setting: 0.1})
