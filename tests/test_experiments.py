"""Experiment harness: trial bookkeeping, reports, and the pathology runs."""

import math
import warnings

import numpy as np
import pytest

import predint.cli
import predint.experiments
from predint import (
    METHOD_TOKENS,
    ConfigError,
    ConstantMean,
    CoverageReport,
    DataError,
    Dataset,
    IntervalSpec,
    Memorizer,
    MethodSpec,
    MinNormOLS,
    ParityAdversary,
    PredictionInterval,
    aggregate,
    default_method_list,
    derive_seed,
    evaluate_methods,
    figure2_experiment,
    gen_gaussian_linear,
    gen_pathological_abc,
    make_regressor,
    parity_vacuity_slack,
    pathology_memorizer,
    pathology_parity,
    run_coverage_mc,
    run_trial,
)
from predint.rng import _normals
from helpers import CountingRegressor, derive_rng

MEAN = ConstantMean()


def gaussian_split(n, n_test, d, seed):
    data, _ = gen_gaussian_linear(n + n_test, d, seed)
    return data.head(n), data.tail_from(n)


class TestMethodSpec:
    def test_labels(self):
        assert MethodSpec("jackknife+").label == "jackknife+"
        assert MethodSpec("cv+").label == "cv+"
        assert MethodSpec("cv+", k_folds=5).label == "cv+(K=5)"
        assert MethodSpec("cross-conformal", k_folds=3).label == "cross-conformal(K=3)"
        # The K knob only shows up where it changes the method.
        assert MethodSpec("jackknife+", k_folds=5).label == "jackknife+"

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            MethodSpec("midpoint")

    @pytest.mark.parametrize("k", [0, -2])
    def test_fold_count_must_be_positive(self, k):
        with pytest.raises(ConfigError, match=f"k_folds must be >= 1, got {k}"):
            MethodSpec("cv+", k_folds=k)
        assert MethodSpec("cv+", k_folds=1).k_folds == 1

    @pytest.mark.parametrize("holdout", [0, 1, 1.5, -0.5, float("nan")])
    def test_split_holdout_must_be_in_the_open_unit_interval(self, holdout):
        # Checked here, not after evaluate_methods has built the fold caches.
        with pytest.raises(ConfigError, match=r"^split_holdout must be in \(0, 1\)"):
            MethodSpec("split", split_holdout=holdout)
        assert MethodSpec("split", split_holdout=0.25).split_holdout == 0.25

    def test_grid_is_checked_here(self):
        # Checked here, before evaluate_methods builds any fold cache, and
        # before the other knobs, as the CLI reports a bad grid flag first.
        with pytest.raises(ConfigError, match="^grid_points must be an integer, got 2.5$"):
            MethodSpec("full-conformal", grid_points=2.5)
        with pytest.raises(ConfigError, match="^grid needs at least 2 points, got 1$"):
            MethodSpec("midpoint", grid_points=1)
        spec = MethodSpec("full-conformal", grid_points=3, grid_lower=-1, grid_upper=2.0)
        assert (spec.grid_points, spec.grid_lower, spec.grid_upper) == (3, -1, 2.0)


class TestCoverageReport:
    def test_summary_arithmetic(self):
        rep = CoverageReport("jackknife+", 0.1, (0.5, 1.0), (2.0, 4.0), 0)
        assert rep.trials == 2
        assert rep.coverage_mean == 0.75
        assert rep.coverage_se == 0.25  # sd of {0.5, 1.0} is 0.3535.., /sqrt(2)
        assert rep.width_mean == 3.0

    def test_nan_widths_are_excluded(self):
        rep = CoverageReport("naive", 0.1, (1.0, 1.0), (2.0, math.nan), 1)
        assert rep.width_mean == 2.0
        assert rep.width_se == 0.0
        all_nan = CoverageReport("naive", 0.0, (1.0,), (math.nan,), 1)
        assert math.isnan(all_nan.width_mean) and math.isnan(all_nan.width_se)

    def test_single_trial_se_is_zero(self):
        rep = CoverageReport("split", 0.1, (0.9,), (1.0,), 0)
        assert rep.coverage_se == 0.0


class TestAggregate:
    def test_pools_trial_rows_in_order(self):
        a = CoverageReport("cv+", 0.2, (0.5,), (1.0,), 1)
        b = CoverageReport("cv+", 0.2, (1.0,), (3.0,), 2)
        merged = aggregate([a, b])
        assert merged.coverages == (0.5, 1.0)
        assert merged.widths == (1.0, 3.0)
        assert merged.infinite_count == 3
        assert merged.coverage_mean == 0.75 and merged.coverage_se == 0.25

    def test_identity_on_a_single_report(self):
        a = CoverageReport("cv+", 0.2, (0.5, 0.7), (1.0, 2.0), 0)
        assert aggregate([a]) == a

    def test_mismatches_are_rejected(self):
        a = CoverageReport("cv+", 0.2, (0.5,), (1.0,), 0)
        with pytest.raises(ConfigError, match="aggregate"):
            aggregate([a, CoverageReport("naive", 0.2, (0.5,), (1.0,), 0)])
        with pytest.raises(ConfigError, match="aggregate"):
            aggregate([a, CoverageReport("cv+", 0.1, (0.5,), (1.0,), 0)])
        with pytest.raises(ConfigError, match="nothing"):
            aggregate([])


class TestRunTrial:
    def constant_split(self):
        rng = derive_rng(3, "const-x")
        X = rng.standard_normal((12, 2))
        data = Dataset(X, np.full(12, 5.0))
        return data.head(8), data.tail_from(8)

    def test_constant_responses_give_point_intervals(self):
        train, test = self.constant_split()
        methods = [
            MethodSpec("naive"),
            MethodSpec("split"),
            MethodSpec("jackknife"),
            MethodSpec("jackknife+"),
            MethodSpec("jackknife-mm"),
            MethodSpec("cv+", k_folds=2),
            MethodSpec("full-conformal", grid_points=50),
        ]
        stats = run_trial(train, test, MEAN, methods, [IntervalSpec(0.25)], seed=1)
        assert len(stats) == len(methods)
        for (label, si), row in stats.items():
            assert si == 0
            assert row.coverage_mean == 1.0, label
            assert row.width_mean == 0.0, label
            assert row.infinite_count == 0 and row.trials == 1

    def test_alpha_zero_everything_infinite(self):
        train, test = gaussian_split(6, 3, 2, seed=4)
        methods = [
            MethodSpec("naive"),
            MethodSpec("jackknife"),
            MethodSpec("jackknife+"),
            MethodSpec("jackknife-mm"),
            MethodSpec("cv+", k_folds=2),
            MethodSpec("cross-conformal"),
        ]
        stats = run_trial(train, test, MEAN, methods, [IntervalSpec(0.0)], seed=2)
        for (label, _), row in stats.items():
            assert row.coverage_mean == 1.0, label
            assert row.infinite_count == 3, label
            assert math.isnan(row.width_mean), label

    def test_multiple_levels_share_the_fits(self):
        train, test = gaussian_split(10, 6, 2, seed=5)
        specs = [IntervalSpec(0.1), IntervalSpec(0.4)]
        stats = run_trial(train, test, MEAN, [MethodSpec("jackknife+")], specs, seed=3)
        narrow = stats[("jackknife+", 1)]
        wide = stats[("jackknife+", 0)]
        assert set(stats) == {("jackknife+", 0), ("jackknife+", 1)}
        assert wide.width_mean >= narrow.width_mean

    def test_minmax_at_least_as_wide_as_plus(self):
        train, test = gaussian_split(12, 8, 3, seed=6)
        methods = [MethodSpec("jackknife+"), MethodSpec("jackknife-mm")]
        stats = run_trial(train, test, MinNormOLS(), methods, [IntervalSpec(0.2)], seed=4)
        assert (
            stats[("jackknife-mm", 0)].width_mean
            >= stats[("jackknife+", 0)].width_mean
        )
        assert (
            stats[("jackknife-mm", 0)].coverage_mean >= stats[("jackknife+", 0)].coverage_mean
        )

    def test_determinism(self):
        train, test = gaussian_split(9, 5, 2, seed=7)
        methods = [MethodSpec("split"), MethodSpec("cross-conformal")]
        kw = dict(methods=methods, specs=[IntervalSpec(0.2)], seed=11)
        assert run_trial(train, test, MEAN, **kw) == run_trial(train, test, MEAN, **kw)

    def test_validation(self):
        train, test = gaussian_split(6, 2, 1, seed=8)
        with pytest.raises(ConfigError, match="at least one"):
            run_trial(train, test, MEAN, [], [IntervalSpec(0.1)])
        with pytest.raises(ConfigError, match="at least one"):
            run_trial(train, test, MEAN, [MethodSpec("naive")], [])
        with pytest.raises(ConfigError, match="duplicate"):
            run_trial(
                train, test, MEAN,
                [MethodSpec("cv+"), MethodSpec("cv+")],
                [IntervalSpec(0.1)],
            )

    @pytest.mark.parametrize("methods, specs, message", [
        ([MethodSpec("naive")], [0.1], "specs must hold IntervalSpec entries, got 0.1"),
        ([MethodSpec("naive")], IntervalSpec(0.1), "specs must be a sequence"),
        (["naive"], [IntervalSpec(0.1)], "methods must hold MethodSpec entries, got 'naive'"),
        ("naive", [IntervalSpec(0.1)], "methods must be a sequence, got 'naive'"),
        ([MethodSpec("jackknife+"), MethodSpec("cross-conformal", k_folds=3)],
         [IntervalSpec(0.2, alpha_lo=0.1, alpha_hi=0.1)],
         "cross-conformal is a rank test on absolute residuals; it defines neither"),
        ([MethodSpec("jackknife+"), MethodSpec("full-conformal")],
         [IntervalSpec(0.2, alpha_lo=0.1, alpha_hi=0.1)], "full-conformal is a rank test"),
        ([MethodSpec("jackknife+"), MethodSpec("cross-conformal")],
         [IntervalSpec(0.2), IntervalSpec(0.2, inflation_eps=0.1)],
         "cross-conformal is a rank test"),
        ([MethodSpec("jackknife+"), MethodSpec("full-conformal")],
         [IntervalSpec(0.2, inflation_eps=0.1)], "full-conformal is a rank test"),
        ([MethodSpec("jackknife+"), MethodSpec("cv+", k_folds=1)], [IntervalSpec(0.2)],
         r"cv\+ needs at least 2 folds and at most n = 6, got 1"),
        ([MethodSpec("jackknife+"), MethodSpec("cv+", k_folds=7)], [IntervalSpec(0.2)],
         r"cv\+ needs at least 2 folds and at most n = 6, got 7"),
        # The grid was resolved only when full conformal's block ran, after
        # every cache was fitted: 6 and 3 fits here.
        ([MethodSpec("jackknife+"), MethodSpec("full-conformal", grid_lower=100.0)],
         [IntervalSpec(0.2)], "^grid lower bound exceeds upper bound$"),
        ([MethodSpec("cv+", k_folds=3), MethodSpec("full-conformal", grid_upper=-100.0)],
         [IntervalSpec(0.2)], "^grid lower bound exceeds upper bound$"),
        ([MethodSpec("jackknife-mm"),
          MethodSpec("full-conformal", grid_lower=-1e308, grid_upper=1e308)],
         [IntervalSpec(0.2)], r"^the grid \[-1e\+308, 1e\+308\] is too wide: its span overflows$"),
    ], ids=["float-spec", "bare-spec", "string-method", "bare-string",
            "cross-conformal-asymmetric", "full-conformal-asymmetric", "cross-conformal-eps",
            "full-conformal-eps", "cv+-k=1", "cv+-k>n", "grid-lower-above-responses",
            "grid-upper-below-responses", "grid-too-wide"])
    def test_entries_are_checked_before_any_fit(self, methods, specs, message):
        # A float spec or a string method raised AttributeError. The level and
        # fold checks of every entry ran only after the caches of the entries
        # before it were fitted, or, for the set methods' levels, all of them.
        train, test = gaussian_split(6, 2, 1, seed=8)
        reg = CountingRegressor(MinNormOLS())
        with pytest.raises(ConfigError, match=message):
            run_trial(train, test, reg, methods, specs)
        with pytest.raises(ConfigError, match=message):
            evaluate_methods(train, test.features, reg, methods, specs)
        assert reg.fits == 0


def test_a_trial_of_interval_methods_builds_no_interval_object(monkeypatch):
    # run_trial scores interval methods from their endpoint arrays; only
    # evaluate_methods' return value is made of PredictionInterval objects.
    built = []
    init = PredictionInterval.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PredictionInterval, "__init__", counted)
    train, test = gaussian_split(20, 7, 2, seed=16)
    methods = [MethodSpec(m) for m in ("naive", "split", "jackknife", "jackknife+",
                                       "jackknife-mm")] + [MethodSpec("cv+", k_folds=5)]
    # alpha = 1 gives empty intervals (width 0) and alpha = 0.04 < 1/(n+1)
    # infinite ones.
    specs = [IntervalSpec(0.2), IntervalSpec(0.3, alpha_lo=0.1, alpha_hi=0.2),
             IntervalSpec(1.0), IntervalSpec(0.04)]
    stats = run_trial(train, test, MinNormOLS(), methods, specs, seed=4)
    assert len(stats) == len(methods) * len(specs)
    assert built == []
    out = evaluate_methods(train, test.features, MinNormOLS(), methods, specs, seed=4)
    assert len(built) == len(methods) * len(specs) * test.n
    # The report from the arrays is the report from the objects.
    for m, mspec in enumerate(methods):
        for si in range(len(specs)):
            objs = out[m][si]
            widths = [iv.width for iv in objs]
            finite = [w for w in widths if math.isfinite(w)]
            report = stats[(mspec.label, si)]
            assert report.coverages == (float(np.mean([iv.contains(y) for iv, y in
                                                       zip(objs, test.responses)])),)
            assert not finite or report.widths[0] == float(np.mean(finite))
            assert report.infinite_count == sum(map(math.isinf, widths))
    assert stats[("jackknife+", 2)].widths == (0.0,)
    assert stats[("jackknife+", 3)].infinite_count == test.n


class TestEvaluateMethods:
    @pytest.mark.parametrize(
        "X_test",
        [np.zeros((2, 2)), np.array([[0.0, math.nan, 0.0]]), np.array([[0.0, math.inf, 0.0]])],
        ids=["two-columns", "nan", "inf"],
    )
    def test_bad_query_points_fail_before_any_fit(self, X_test):
        train, _ = gaussian_split(8, 1, 3, seed=9)
        reg = CountingRegressor(MinNormOLS())
        with pytest.raises(DataError, match="query points"):
            evaluate_methods(train, X_test, reg, [MethodSpec("jackknife+")], [IntervalSpec(0.2)])
        assert reg.fits == 0

    @pytest.mark.parametrize(
        "mspec",
        [MethodSpec("naive"), MethodSpec("split"), MethodSpec("jackknife"),
         MethodSpec("jackknife+"), MethodSpec("jackknife-mm"), MethodSpec("cv+", k_folds=3),
         MethodSpec("cross-conformal", k_folds=3)],
        ids=lambda m: m.method,
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_predictions_are_a_data_error(self, mspec):
        # ||beta||^2 = 10, so some coefficient exceeds 2 and x . beta overflows.
        train, _ = gaussian_split(12, 1, 2, seed=14)
        with pytest.raises(DataError, match="not finite"):
            evaluate_methods(train, np.array([[1e308, 1e308]]), MinNormOLS(), [mspec],
                             [IntervalSpec(0.2)])

    @pytest.mark.parametrize("token", METHOD_TOKENS)
    def test_an_empty_training_set_fails_before_any_fit(self, token):
        # It raised numpy's ValueError (full conformal's default grid) or a
        # ConfigError about a quantile's input.
        empty = Dataset(np.zeros((0, 3)), np.zeros(0))
        reg = CountingRegressor(MinNormOLS())
        with pytest.raises(ConfigError, match="the training set is empty"):
            evaluate_methods(empty, np.zeros((1, 3)), reg, [MethodSpec(token)],
                             [IntervalSpec(0.1)])
        assert reg.fits == 0

    def test_full_conformal_rejects_an_empty_training_set(self):
        # Given grid bounds, nothing reads the empty responses' range.
        empty = Dataset(np.zeros((0, 3)), np.zeros(0))
        reg = CountingRegressor(MinNormOLS())
        with pytest.raises(ConfigError, match="the training set is empty"):
            evaluate_methods(empty, np.zeros((1, 3)), reg,
                             [MethodSpec("full-conformal", grid_lower=-1.0, grid_upper=1.0)],
                             [IntervalSpec(0.1)])
        assert reg.fits == 0

    def test_run_trial_rejects_a_test_set_of_another_width(self):
        train, _ = gaussian_split(8, 1, 3, seed=9)
        _, test = gaussian_split(8, 2, 2, seed=9)
        with pytest.raises(DataError, match="query points"):
            run_trial(train, test, MEAN, [MethodSpec("jackknife+")], [IntervalSpec(0.2)])

    def test_repeated_methods_give_repeated_entries(self):
        train, test = gaussian_split(8, 3, 2, seed=10)
        methods = [MethodSpec("naive"), MethodSpec("cv+", k_folds=2), MethodSpec("naive")]
        specs = [IntervalSpec(0.2), IntervalSpec(0.4)]
        out = evaluate_methods(train, test.features, MEAN, methods, specs, seed=1)
        assert [len(per_spec) for per_spec in out] == [2, 2, 2]
        assert all(len(objs) == 3 for per_spec in out for objs in per_spec)
        assert out[0] == out[2]

    def test_naive_alone_fits_once(self):
        train, test = gaussian_split(10, 3, 2, seed=12)
        reg = CountingRegressor(MinNormOLS())
        run_trial(train, test, reg, [MethodSpec("naive")], [IntervalSpec(0.2)])
        assert reg.fits == 1

    def test_cli_naive_and_jackknife_share_the_full_fit(self, monkeypatch, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n0,0\n1,0\n2,3\n")
        test.write_text("x,y\n1,0\n")
        reg = CountingRegressor(MinNormOLS())
        monkeypatch.setattr(predint.cli, "make_regressor", lambda *a, **kw: reg)
        rc = predint.cli.main(["intervals", "--train", str(train), "--test", str(test),
                               "--alpha", "0.25", "--method", "naive", "--method", "jackknife"])
        capsys.readouterr()
        assert rc == 0
        assert reg.fits == 3 + 1  # one fit per left-out row, one full fit

    def test_cli_fold_errors_come_before_any_fit(self, monkeypatch, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n0,0\n1,0\n2,3\n")
        test.write_text("x,y\n1,0\n")
        reg = CountingRegressor(MinNormOLS())
        monkeypatch.setattr(predint.cli, "make_regressor", lambda *a, **kw: reg)
        for k in ("1", "4"):
            rc = predint.cli.main(["intervals", "--train", str(train), "--test", str(test),
                                   "--method", "jackknife+", "--method", "cv+", "--k", k])
            assert (rc, capsys.readouterr().err) == (
                2, f"error: cv+ needs at least 2 folds and at most n = 3, got {k}\n")
        # Strict, K = 2 on 3 rows raised after jackknife+'s three fits.
        rc = predint.cli.main(["intervals", "--train", str(train), "--test", str(test),
                               "--method", "jackknife+", "--method", "cv+", "--k", "2",
                               "--strict-folds"])
        assert (rc, capsys.readouterr().err) == (
            2, "error: k_folds=2 does not divide n=3 (strict mode)\n")
        assert reg.fits == 0

    def test_uneven_folds_are_refused_or_warned_before_any_fit(self):
        # Both came from the cache builder, after the 20 leave-one-out fits of
        # the jackknife+ entry before cv+.
        train, test = gaussian_split(20, 2, 2, seed=17)
        reg, specs = CountingRegressor(MinNormOLS()), [IntervalSpec(0.2)]
        methods = [MethodSpec("jackknife+"), MethodSpec("cv+", k_folds=7)]
        with pytest.raises(ConfigError, match=r"^k_folds=7 does not divide n=20 \(strict mode\)$"):
            evaluate_methods(train, test.features, reg, methods, specs, strict=True)
        assert reg.fits == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="^k_folds=7 does not divide n=20; fold sizes"):
                evaluate_methods(train, test.features, reg, methods, specs)
            with pytest.raises(UserWarning, match="^k_folds=7 does not divide n=20; fold sizes"):
                run_trial(train, test, reg, methods, specs)
        assert reg.fits == 0

    def test_one_warning_per_uneven_k_at_the_caller(self):
        # cv+ and cross-conformal at K = 7 share one cache and one warning;
        # K = 5 divides 20 and warns not at all. Each warning points at the
        # line that called evaluate_methods or run_trial.
        train, test = gaussian_split(20, 2, 1, seed=18)
        methods = [MethodSpec("cv+", k_folds=7), MethodSpec("cross-conformal", k_folds=7),
                   MethodSpec("cv+", k_folds=5), MethodSpec("jackknife-mm"),
                   MethodSpec("cross-conformal", k_folds=3)]
        specs = [IntervalSpec(0.2), IntervalSpec(0.4)]
        with pytest.warns(UserWarning) as record:
            evaluate_methods(train, test.features, MEAN, methods, specs)
        with pytest.warns(UserWarning) as trial_record:
            run_trial(train, test, MEAN, methods, specs)
        for warned in (record, trial_record):
            assert [str(w.message) for w in warned] == [
                f"k_folds={k} does not divide n=20; fold sizes will differ by one"
                for k in (7, 3)]
            assert {w.filename for w in warned} == {__file__}

    def test_a_split_of_one_row_fails_before_any_fit(self):
        # It fitted the full model for naive, then raised "cannot split fewer
        # than 2 rows".
        one = Dataset([[0.0]], [1.0])
        reg = CountingRegressor(MinNormOLS())
        with pytest.raises(ConfigError, match="split needs at least 2 training rows"):
            evaluate_methods(one, [[0.5]], reg, [MethodSpec("naive"), MethodSpec("split")],
                             [IntervalSpec(0.5)])
        assert reg.fits == 0

    def test_each_cache_answers_in_its_own_blocks(self, monkeypatch):
        # One block size, set by the 8192 models of jackknife+'s cache, gave
        # cv+ one-row blocks, where elimination is slowest: 2 * q selections
        # of one row. Each cache now sizes its own: cv+'s 2 models take the
        # q rows in one block, and jackknife+ keeps its buffer path.
        from predint.quantiles import _SortedGroups

        rows, select = [], _SortedGroups.select_rows

        def spy(self, shifts, subtract, k):
            rows.append(len(shifts))
            return select(self, shifts, subtract, k)

        monkeypatch.setattr(_SortedGroups, "select_rows", spy)
        train, test = gaussian_split(8192, 6, 1, seed=19)
        methods = [MethodSpec("jackknife+"), MethodSpec("cv+", k_folds=2)]
        out = evaluate_methods(train, test.features, MEAN, methods, [IntervalSpec(0.2)])
        assert rows == [6, 6]
        assert all(len(objs) == 6 for per_spec in out for objs in per_spec)

    def test_one_residual_quantile_per_vector_and_level(self, monkeypatch):
        import predint.intervals as intervals

        calls = []
        for name in ("upper_quantile", "lower_quantile"):
            def counted(values, alpha, _inner=getattr(intervals, name)):
                calls.append(alpha)
                return _inner(values, alpha)
            monkeypatch.setattr(intervals, name, counted)
        train, test = gaussian_split(12, 5, 2, seed=15)
        methods = [MethodSpec(m) for m in ("naive", "split", "jackknife", "jackknife-mm",
                                           "naive")]
        specs = [IntervalSpec(0.2), IntervalSpec(0.3, alpha_lo=0.1, alpha_hi=0.2)]
        out = evaluate_methods(train, test.features, MinNormOLS(), methods, specs, seed=2)
        # Residual vectors: in-sample once for both naive entries, holdout
        # once, and leave-one-out once for jackknife and jackknife-mm
        # together. Each takes one quantile at the symmetric level and two at
        # the asymmetric.
        assert len(calls) == 3 * 3
        assert out[0] == out[4]

    def test_methods_that_skip_the_full_model_never_fit_it(self):
        train, test = gaussian_split(20, 3, 2, seed=13)
        reg = CountingRegressor(MinNormOLS())
        methods = [MethodSpec("jackknife+"), MethodSpec("jackknife-mm"), MethodSpec("split")]
        methods += [MethodSpec("cv+", k_folds=k) for k in (2, 5, None)]
        run_trial(train, test, reg, methods, [IntervalSpec(0.1), IntervalSpec(0.2)])
        assert reg.fits == 2 + 5 + 20 + 1  # fold fits per K, one split fit


class TestDefaultMethodList:
    def test_divisible_n_gets_k_fold_cv(self):
        labels = [m.label for m in default_method_list(20)]
        assert labels == [
            "naive", "split", "jackknife", "jackknife+", "jackknife-mm", "cv+(K=10)",
        ]

    def test_awkward_n_falls_back_to_loo(self):
        assert default_method_list(7)[-1].label == "cv+"
        assert default_method_list(5)[-1].label == "cv+"  # K=10 > n

    def test_fold_count_must_be_positive(self):
        with pytest.raises(ConfigError, match="k_folds"):
            default_method_list(10, 0)


def hand_reports(trials, draw, regressor, methods, specs, n, seed_label):
    """Reports from a plain loop of run_trial, one list of rows per key."""
    rows = {}
    for t in range(trials):
        data = draw(t)
        stats = run_trial(data.head(n), data.tail_from(n), regressor, methods, specs,
                          seed=derive_seed(*seed_label, t))
        for (label, si), row in stats.items():
            rows.setdefault((label, si), []).append(row)
    return {key: aggregate(rs) for key, rs in rows.items()}


class TestTrialDriver:
    """Each experiment equals a hand loop of run_trial over its seed labels."""

    def test_figure2_matches_run_trial(self):
        n, n_test, trials, seed = 10, 4, 3, 6
        methods = default_method_list(n, 5)
        out = figure2_experiment(n=n, d_list=(2, 12), trials=trials, n_test=n_test,
                                 alpha=0.2, seed=seed, methods=methods)
        for d in (2, 12):
            tag = f"figure2/d={d}"
            expected = hand_reports(
                trials, lambda t: gen_gaussian_linear(n + n_test, d, derive_seed(seed, tag, t))[0],
                MinNormOLS(), methods, [IntervalSpec(0.2)], n, (seed, f"figure2-trial/d={d}"),
            )
            assert out[d] == {label: rep for (label, _), rep in expected.items()}

    def test_coverage_mc_matches_run_trial(self):
        n, d, n_test, trials, seed = 8, 2, 3, 3, 9
        alphas = (0.1, 0.25)
        rows = run_coverage_mc(n=n, d=d, trials=trials, n_test=n_test, alphas=alphas,
                               regressors=("mean", "ols"), k_list=(2, None), seed=seed)
        methods = [MethodSpec("jackknife+"), MethodSpec("jackknife-mm"), MethodSpec("split"),
                   MethodSpec("cv+", k_folds=2), MethodSpec("cv+")]
        specs = [IntervalSpec(a) for a in alphas]
        expected = []
        for name in ("mean", "ols"):
            tag = f"coverage-mc/{name}"
            reports = hand_reports(
                trials, lambda t: gen_gaussian_linear(n + n_test, d, derive_seed(seed, tag, t))[0],
                make_regressor(name), methods, specs, n, (seed, f"coverage-mc-trial/{name}"),
            )
            expected += [(name, m.label, a, reports[(m.label, si)])
                         for m in methods for si, a in enumerate(alphas)]
        assert [(r["regressor"], r["method"], r["alpha"], r["report"]) for r in rows] == expected

    def test_memorizer_matches_run_trial(self):
        n, n_test, trials, seed = 5, 4, 4, 3
        out = pathology_memorizer(n=n, eps=0.5, trials=trials, n_test=n_test, alpha=0.2, seed=seed)

        def draw(t):
            X = _normals(derive_seed(seed, "memorizer", t), n + n_test).reshape(-1, 1)
            return Dataset(X, np.zeros(n + n_test))

        methods = [MethodSpec("naive"), MethodSpec("jackknife"), MethodSpec("jackknife+")]
        expected = hand_reports(trials, draw, Memorizer(eps=0.5), methods, [IntervalSpec(0.2)],
                                n, (seed, "memorizer-trial"))
        assert out == {label: rep for (label, _), rep in expected.items()}

    @pytest.mark.parametrize("trials", [0, -1])
    def test_every_experiment_needs_a_trial(self, trials):
        runs = [
            lambda: figure2_experiment(n=6, d_list=(2,), trials=trials, n_test=2),
            lambda: run_coverage_mc(n=6, d=2, trials=trials, n_test=2),
            lambda: pathology_memorizer(n=4, trials=trials, n_test=2),
            lambda: pathology_parity(n=40_000, trials=trials, n_test=10),
        ]
        for run in runs:
            with pytest.raises(ConfigError, match=f"trials must be >= 1, got {trials}"):
                run()

    def test_run_trial_needs_a_test_row(self):
        data, _ = gen_gaussian_linear(6, 2, seed=1)
        with pytest.raises(ConfigError, match="n_test must be >= 1"):
            run_trial(data, data.tail_from(6), MEAN, [MethodSpec("naive")], [IntervalSpec(0.2)])

    def test_parity_calls_run_trial_once_per_trial(self, monkeypatch):
        calls = []

        def spy(train, test, regressor, methods, specs, seed=0):
            calls.append((train.n, test.n, type(regressor), [m.label for m in methods]))
            return run_trial(train, test, regressor, methods, specs, seed)

        monkeypatch.setattr(predint.experiments, "run_trial", spy)
        res = pathology_parity(n=40_000, alpha=0.25, trials=3, n_test=10, seed=2)
        assert calls == [(40_000, 10, ParityAdversary, ["jackknife+"])] * 3
        assert res.report.trials == 3

    def test_parity_needs_a_test_row_before_anything_else(self):
        # n = 10 is vacuous, so only a check made first names n_test.
        for n in (10, 40_000):
            with pytest.raises(ConfigError, match="n_test must be >= 1, got 0"):
                pathology_parity(n=n, trials=1, n_test=0)


class TestFigure2:
    def test_small_run_shape_and_determinism(self):
        kw = dict(n=12, d_list=(2, 4), trials=2, n_test=5, alpha=0.2, seed=3)
        out = figure2_experiment(**kw)
        assert set(out) == {2, 4}
        for d, per_method in out.items():
            assert set(per_method) == {
                "naive", "split", "jackknife", "jackknife+", "jackknife-mm", "cv+",
            }
            for rep in per_method.values():
                assert rep.trials == 2 and rep.alpha == 0.2
        assert figure2_experiment(**kw) == out

    @pytest.mark.parametrize("d_list", [20, "20", None], ids=["int", "string", "none"])
    def test_d_list_must_be_a_sequence(self, d_list):
        # An int raised a raw TypeError.
        with pytest.raises(ConfigError, match="d_list must be a sequence"):
            figure2_experiment(n=6, d_list=d_list, trials=1, n_test=2)

    @pytest.mark.parametrize("d_list, message", [
        ((3, 0), "d must be >= 1, got 0"),
        ((3, -2), "d must be >= 1, got -2"),
        ((3, 2.5), "d must be an integer"),
    ], ids=["zero", "negative", "float"])
    def test_every_d_list_entry_is_checked_before_the_first_trial(
        self, d_list, message, monkeypatch
    ):
        # A bad entry late in the list failed only after every trial at the
        # entries before it.
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(predint.experiments, "run_trial", spy)
        with pytest.raises(ConfigError, match=message):
            figure2_experiment(n=6, d_list=d_list, trials=2, n_test=2)
        assert calls == []


class TestCoverageMc:
    def test_row_layout_and_bounds(self):
        rows = run_coverage_mc(
            n=8, d=2, trials=3, n_test=4, alphas=(0.2,),
            regressors=("mean",), k_list=(2, None), seed=5,
        )
        assert [(r["method"], r["alpha"]) for r in rows] == [
            ("jackknife+", 0.2),
            ("jackknife-mm", 0.2),
            ("split", 0.2),
            ("cv+(K=2)", 0.2),
            ("cv+", 0.2),
        ]
        by_method = {r["method"]: r for r in rows}
        assert by_method["jackknife+"]["bound"] == 1.0 - 0.4
        assert by_method["jackknife-mm"]["bound"] == 0.8
        assert by_method["split"]["bound"] == 0.8
        assert by_method["cv+(K=2)"]["bound"] == 1.0 - 0.4 - math.sqrt(2.0 / 8)
        for r in rows:
            assert r["regressor"] == "mean"
            assert r["report"].trials == 3

    def test_determinism(self):
        kw = dict(n=6, d=1, trials=2, n_test=3, alphas=(0.25,),
                  regressors=("ols",), k_list=(None,), seed=8)
        assert run_coverage_mc(**kw) == run_coverage_mc(**kw)

    @pytest.mark.parametrize("argument, value", [
        ("alphas", 0.1), ("alphas", "0.1"), ("regressors", "ols"), ("regressors", make_regressor),
        ("k_list", 5), ("k_list", "n"),
    ], ids=["alphas-float", "alphas-string", "regressors-string", "regressors-callable",
            "k_list-int", "k_list-string"])
    def test_list_arguments_must_be_sequences(self, argument, value):
        # A float raised a raw TypeError, and "ols" read as the tokens o, l, s.
        with pytest.raises(ConfigError, match=f"{argument} must be a sequence"):
            run_coverage_mc(n=6, d=2, trials=1, n_test=2, **{argument: value})

    def test_every_regressor_token_is_checked_before_the_first_trial(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(predint.experiments, "run_trial", spy)
        with pytest.raises(ConfigError, match="unknown regressor 'tree'"):
            run_coverage_mc(n=6, d=2, trials=2, n_test=2, regressors=("mean", "tree"))
        # Entries are tokens; a regressor object is not one.
        with pytest.raises(ConfigError, match=r"unknown regressor MinNormOLS\(\)"):
            run_coverage_mc(n=6, d=2, trials=2, n_test=2, regressors=("mean", MinNormOLS()))
        assert calls == []


class TestMemorizerPathology:
    def test_exact_failure_pattern_at_small_scale(self):
        out = pathology_memorizer(n=6, eps=1.0, trials=5, n_test=5, alpha=0.2, seed=2)
        assert out["naive"].coverage_mean == 0.0
        assert out["jackknife"].coverage_mean == 0.0
        assert out["jackknife+"].coverage_mean == 1.0
        # Not just on average: every single trial.
        assert set(out["naive"].coverages) == {0.0}
        assert set(out["jackknife+"].coverages) == {1.0}


class TestParityPathology:
    def test_matches_run_trial_on_every_test_row(self):
        # Each parity trial is one run_trial call on its own draw.
        n, alpha, seed = 40_000, 0.25, 4
        res = pathology_parity(n=n, alpha=alpha, trials=1, n_test=300, seed=seed)
        train = gen_pathological_abc(n, alpha, res.gamma, derive_seed(seed, "parity-train", 0),
                                     res.tau)
        test = gen_pathological_abc(300, alpha, res.gamma, derive_seed(seed, "parity-test", 0),
                                    res.tau)
        assert np.count_nonzero(test.features[:, 0] == 0.0) > 1
        stats = run_trial(
            train, test, ParityAdversary(res.tau), [MethodSpec("jackknife+")],
            [IntervalSpec(alpha, inflation_eps=res.eps)],
        )
        assert res.report == stats[("jackknife+", 0)]

    def test_vacuous_configurations_are_rejected(self):
        with pytest.raises(ConfigError, match="vacuous"):
            pathology_parity(n=1000, alpha=0.25, trials=1, n_test=10)
        with pytest.raises(ConfigError, match="eps"):
            pathology_parity(n=100_000, alpha=0.25, eps=0.0, trials=1, n_test=10)
        with pytest.raises(ConfigError, match="gamma"):
            pathology_parity(
                n=100_000, alpha=0.25, gamma=1.5, trials=1, n_test=10
            )

    @pytest.mark.parametrize("n", [0, -5])
    def test_training_size_below_one_is_a_config_error(self, n):
        # log(n) in the vacuity check raised a raw ValueError here.
        with pytest.raises(ConfigError, match=f"n must be >= 1, got {n}"):
            pathology_parity(n=n, trials=1, n_test=10)

    def test_a_single_training_row_is_vacuous(self):
        # log(1) = 0 zeroed the slack, and the default gamma came out 0.
        with pytest.raises(ConfigError, match="vacuous at n=1"):
            pathology_parity(n=1, trials=1, n_test=10)

    def test_slack_formula(self):
        assert parity_vacuity_slack(100) == 6.0 * math.sqrt(math.log(100) / 100)
        assert parity_vacuity_slack(1) == 0.0

    @pytest.mark.parametrize("n", [0, -5])
    def test_slack_needs_a_row(self, n):
        # log(n) raised ValueError: math domain error here.
        with pytest.raises(ConfigError, match=f"^n must be >= 1, got {n}$"):
            parity_vacuity_slack(n)

    def test_small_but_valid_run(self):
        # n = 40000 keeps the slack (~0.0977) under alpha = 0.25 while
        # running in well under a second per trial.
        res = pathology_parity(n=40_000, alpha=0.25, trials=2, n_test=300, seed=4)
        assert res.bound_upper == 0.5 + parity_vacuity_slack(40_000)
        assert res.gamma == pytest.approx((2.15 / 0.25) * math.sqrt(math.log(40_000) / 40_000))
        assert res.tau == 0.01 * 40_000
        assert res.report.trials == 2
        # Coverage sits in the anti-concentration window, far below 1 - alpha.
        assert 0.35 <= res.report.coverage_mean <= res.bound_upper
