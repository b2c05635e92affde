"""End-to-end checks of the command-line front end via main(argv)."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from predint import (
    REGRESSOR_TOKENS,
    DataError,
    GridSpec,
    IntervalSpec,
    MethodSpec,
    MinNormOLS,
    PredictionInterval,
    PredictionSet,
    SplitSpec,
    build_loo_cache,
    canonical_order,
    coverage_lower_bounds,
    cross_conformal_set,
    cv_plus,
    derive_seed,
    full_conformal_set,
    gen_gaussian_linear,
    jackknife,
    jackknife_minmax,
    jackknife_plus,
    lower_quantile,
    pathology_parity,
    run_trial,
    upper_quantile,
)
import predint.cli
import predint.dataset
from predint.cli import (EXPERIMENTS, _SIMULATE_ECHO, _UNECHOED, _interval_cells, _regressor,
                         _write_output, build_parser, format_object, main)
from predint.regressors import _CLASSES, _SETTINGS
from predint.rng import _uniforms
from helpers import derive_rng
from test_rng import _LEAKY_OLS, _PROBE, run_probe

WORKED_TRAIN = "x,y\n0,0\n1,0\n2,3\n"
WORKED_TEST = "x,y\n1,0\n"


@pytest.fixture
def worked_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text(WORKED_TRAIN)
    test.write_text(WORKED_TEST)
    return str(train), str(test)


def write_csv(path, data):
    """``data`` as a CSV file, features x1..xd then y, each cell with 17
    significant digits, which round-trips every float exactly."""
    header = ",".join([f"x{j + 1}" for j in range(data.d)] + ["y"])
    rows = np.column_stack([data.features, data.responses])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def run_to_file(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out.read_text()


def data_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestIntervalsCommand:
    def test_worked_example_row(self, tmp_path, worked_files):
        train, test = worked_files
        rc, text = run_to_file(
            tmp_path,
            ["intervals", "--train", train, "--test", test,
             "--method", "jackknife+", "--alpha", "0.25", "--regressor", "mean"],
        )
        assert rc == 0
        assert text.startswith("# predint intervals\n")
        header, rows = data_rows(text)
        assert header == [
            "test_index", "method", "alpha", "lower", "upper", "components", "covered",
        ]
        assert rows == [["0", "jackknife+", "0.25", "-3.0", "3.0", "-3.0:3.0", "1"]]

    def test_method_flag_is_repeatable_and_ordered(self, worked_files, capsys):
        train, test = worked_files
        rc = main(
            ["intervals", "--train", train, "--test", test, "--alpha", "0.25",
             "--regressor", "mean", "--method", "naive", "--method", "jackknife",
             "--method", "jackknife-mm"]
        )
        assert rc == 0
        _, rows = data_rows(capsys.readouterr().out)
        assert [r[1] for r in rows] == ["naive", "jackknife", "jackknife-mm"]
        assert rows[0][3:6] == ["-1.0", "3.0", "-1.0:3.0"]
        assert rows[1][3:6] == ["-2.0", "4.0", "-2.0:4.0"]
        assert rows[2][3:6] == ["-3.0", "4.5", "-3.0:4.5"]

    def test_set_methods_report_components(self, tmp_path, worked_files):
        train, test = worked_files
        rc, text = run_to_file(
            tmp_path,
            ["intervals", "--train", train, "--test", test, "--alpha", "0.25",
             "--regressor", "mean", "--method", "cross-conformal",
             "--method", "full-conformal", "--grid-points", "301",
             "--grid-lower", "-5", "--grid-upper", "5"],
        )
        assert rc == 0
        _, rows = data_rows(text)
        # Any tau > 0 accepts the full span on this instance.
        assert rows[0][1:6] == ["cross-conformal", "0.25", "-3.0", "3.0", "-3.0:3.0"]
        assert rows[1][1:6] == ["full-conformal", "0.25", "-3.0", "3.0", "-3.0:3.0"]

    def test_infinite_interval_cells(self, tmp_path, worked_files):
        train, test = worked_files
        # alpha = 0.1 < 1/(n+1): both quantile indices overflow.
        rc, text = run_to_file(
            tmp_path,
            ["intervals", "--train", train, "--test", test,
             "--alpha", "0.1", "--regressor", "mean"],
        )
        assert rc == 0
        _, rows = data_rows(text)
        assert rows == [["0", "jackknife+", "0.1", "-inf", "inf", "-inf:inf", "1"]]

    def test_unlabeled_test_file_leaves_covered_blank(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text(WORKED_TRAIN)
        test.write_text("x\n1\n")
        rc, text = run_to_file(
            tmp_path,
            ["intervals", "--train", str(train), "--test", str(test),
             "--alpha", "0.25", "--regressor", "mean"],
        )
        assert rc == 0
        _, rows = data_rows(text)
        assert rows == [["0", "jackknife+", "0.25", "-3.0", "3.0", "-3.0:3.0", ""]]

    def test_echo_lines_record_the_configuration(self, tmp_path, worked_files):
        train, test = worked_files
        rc, text = run_to_file(
            tmp_path,
            ["intervals", "--train", train, "--test", test, "--regressor", "knn",
             "--knn-k", "2", "--alpha", "0.5"],
        )
        assert rc == 0
        comments = [ln for ln in text.splitlines() if ln.startswith("# ") and "=" in ln]
        assert "# alpha=0.5" in comments
        assert "# regressor=knn" in comments
        assert "# knn_k=2" in comments
        assert comments == sorted(comments)

    def test_each_input_file_is_read_once(self, tmp_path, worked_files, monkeypatch):
        train, test = worked_files
        reads = []
        read_table = predint.dataset._read_table

        def spy(path, *args, **kwargs):
            reads.append(path)
            return read_table(path, *args, **kwargs)

        monkeypatch.setattr(predint.dataset, "_read_table", spy)
        rc, _ = run_to_file(tmp_path, ["intervals", "--train", train, "--test", test,
                                       "--regressor", "mean", "--alpha", "0.25"])
        assert rc == 0
        assert sorted(reads) == sorted([train, test])

    @pytest.mark.parametrize("regressor", ["mean", "ols", "knn", "memorizer"])
    def test_full_conformal_on_a_one_value_grid(self, regressor, tmp_path, worked_files):
        # Every grid point is the same candidate, so the set is that point or empty.
        train, test = worked_files
        components = []
        for value in ("0", "1000"):
            rc, text = run_to_file(
                tmp_path,
                ["intervals", "--train", train, "--test", test, "--regressor", regressor,
                 "--knn-k", "1", "--alpha", "0.25", "--method", "full-conformal",
                 "--grid-lower", value, "--grid-upper", value],
            )
            assert rc == 0
            components.append(data_rows(text)[1][0][5])
        assert components == ["0.0:0.0", ""]

    def test_echo_records_the_grid_bounds(self, tmp_path, worked_files):
        train, test = worked_files
        argv = ["intervals", "--train", train, "--test", test, "--regressor", "mean",
                "--alpha", "0.25", "--method", "full-conformal"]
        echoes = []
        for bounds in ([], ["--grid-lower", "-5", "--grid-upper", "5"]):
            rc, text = run_to_file(tmp_path, argv + bounds)
            assert rc == 0
            echoes.append([ln for ln in text.splitlines() if ln.startswith("#")])
        assert "# grid_lower=None" in echoes[0] and "# grid_upper=None" in echoes[0]
        assert echoes[0] != echoes[1]
        assert "# grid_lower=-5.0" in echoes[1] and "# grid_upper=5.0" in echoes[1]


INTERVAL_METHODS = ("naive", "split", "jackknife", "jackknife+", "jackknife-mm", "cv+")
ALL_METHODS = INTERVAL_METHODS + ("cross-conformal", "full-conformal")


class TestIntervalsOracle:
    """Every `intervals` row equals its method built here from the library's
    public parts: naive and split from their definitions (a fit and its
    residual quantiles), the other six from their public functions."""

    SEED = 5
    K = 2

    DATA = gen_gaussian_linear(16, 2, seed=21)[0]
    TRAIN, TEST = DATA.head(12), DATA.tail_from(12)

    @pytest.fixture
    def seeded_files(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_csv(train, self.TRAIN)
        write_csv(test, self.TEST)
        return str(train), str(test)

    @staticmethod
    def about(model, signed, spec, x):
        """The interval around ``model``'s prediction at x from the corrected
        quantiles of the residuals ``signed``: signed ones at alpha_lo and
        alpha_hi, or -+ the absolute one at alpha."""
        center = model.predict(x)
        if spec.asymmetric:
            q_lo = lower_quantile(signed, spec.alpha_lo)
            q_hi = upper_quantile(signed, spec.alpha_hi)
        else:
            q_hi = upper_quantile(np.abs(signed), spec.alpha)
            q_lo = -q_hi
        return PredictionInterval(center + q_lo, center + q_hi)

    def reference_rows(self, spec, methods):
        """The rows built from the in-memory data, so the CLI's rows match
        them only if its loader reads back the written floats exactly."""
        train, X_test = self.TRAIN, self.TEST.features
        reg = MinNormOLS()
        loo = build_loo_cache(train, reg)
        folds = build_loo_cache(
            train, reg, self.K, fold_seed=derive_seed(self.SEED, f"folds/{self.K}")
        )
        taus = _uniforms(derive_seed(self.SEED, "tau"), len(X_test))
        full = reg.fit(train)
        # The split deals its positions over the canonical row order.
        kept, held_out = SplitSpec(0.5, seed=derive_seed(self.SEED, "split")).resolve(train.n)
        order = canonical_order(train.features, train.responses)
        split, held = reg.fit(train.take(order[kept])), train.take(order[held_out])
        reference = {
            "naive": lambda x, tau: self.about(
                full, train.responses - full.predict_many(train.features), spec, x),
            "split": lambda x, tau: self.about(
                split, held.responses - split.predict_many(held.features), spec, x),
            "jackknife": lambda x, tau: jackknife(loo, spec, x),
            "jackknife+": lambda x, tau: jackknife_plus(loo, spec, x),
            "jackknife-mm": lambda x, tau: jackknife_minmax(loo, spec, x),
            "cv+": lambda x, tau: cv_plus(folds, spec, x),
            "cross-conformal": lambda x, tau: cross_conformal_set(folds, spec, x, tau),
            "full-conformal": lambda x, tau: full_conformal_set(train, reg, spec, x, GridSpec()),
        }
        return [
            [str(j), m, *format_object(reference[m](x, float(taus[j])))]
            for j, x in enumerate(X_test)
            for m in methods
        ]

    @pytest.mark.parametrize(
        "levels, methods",
        [
            (dict(alpha=0.2), ALL_METHODS),
            (dict(alpha=0.2, alpha_lo=0.08, alpha_hi=0.12), INTERVAL_METHODS),
        ],
        ids=["symmetric", "asymmetric"],
    )
    def test_rows_match_the_reference_constructions(self, tmp_path, seeded_files, levels,
                                                    methods):
        train, test = seeded_files
        argv = ["intervals", "--train", train, "--test", test, "--k", str(self.K),
                "--seed", str(self.SEED)]
        for key, value in levels.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        for m in methods:
            argv += ["--method", m]
        rc, text = run_to_file(tmp_path, argv)
        assert rc == 0
        _, rows = data_rows(text)
        got = [[r[0], r[1], r[3], r[4], r[5]] for r in rows]
        spec = IntervalSpec(**levels)
        assert got == self.reference_rows(spec, methods)

    def test_rows_build_no_interval_and_are_scored_as_a_trial(self, tmp_path, seeded_files,
                                                              monkeypatch):
        # The command formats _evaluate's endpoint arrays, and its covered
        # column comes from the scorer of run_trial's reports.
        built = []
        init = PredictionInterval.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PredictionInterval, "__init__", counted)
        train, test = seeded_files
        argv = ["intervals", "--train", train, "--test", test, "--k", str(self.K),
                "--seed", str(self.SEED), "--alpha", "0.5"]
        rc, _ = run_to_file(tmp_path, argv + [f"--method={m}" for m in INTERVAL_METHODS])
        assert (rc, built) == (0, [])
        rc, text = run_to_file(tmp_path, argv + [f"--method={m}" for m in ALL_METHODS])
        assert rc == 0
        _, rows = data_rows(text)
        methods = [MethodSpec(m, k_folds=self.K) for m in ALL_METHODS]
        stats = run_trial(self.TRAIN, self.TEST, MinNormOLS(), methods, [IntervalSpec(0.5)],
                          seed=self.SEED)
        for mspec in methods:
            covered = [int(row[6]) for row in rows if row[1] == mspec.method]
            assert len(covered) == self.TEST.n
            assert stats[(mspec.label, 0)].coverages == (float(np.mean(covered)),), mspec.label


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, worked_files):
        _, test = worked_files
        rc = main(["intervals", "--train", str(tmp_path / "nope.csv"), "--test", test])
        assert rc == 3

    def test_feature_count_mismatch(self, tmp_path, worked_files):
        train, _ = worked_files
        wide = tmp_path / "wide.csv"
        wide.write_text("x,z\n1,2\n")
        rc = main(["intervals", "--train", train, "--test", str(wide)])
        assert rc == 3

    def test_a_bad_cell_names_its_file(self, tmp_path, worked_files, capsys):
        train, _ = worked_files
        bad = tmp_path / "bad_test.csv"
        bad.write_text("x,z\n1,zz\n")
        rc = main(["intervals", "--train", train, "--test", str(bad), "--regressor", "mean"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"error: {bad}: row 1, column 'z': cannot parse 'zz'" in err
        assert train not in err

    @pytest.mark.parametrize("argv", [
        ["intervals", "--regressor", "mean"],
        ["simulate", "--experiment", "coverage-mc", "--trials", "1", "--n", "10", "--n-test", "2"],
        ["audit", "--trials", "1", "--n", "5"],
        ["stability", "--trials", "2", "--n", "6", "--d", "2", "--knn-k", "2"],
    ], ids=["intervals", "simulate", "audit", "stability"])
    def test_an_unwritable_out_is_a_configuration_error(self, argv, worked_files, tmp_path,
                                                         capsys):
        # Exit 1 would read as an audit violation; a path that cannot be
        # written is a setting to fix.
        if argv[0] == "intervals":
            argv = argv + ["--train", worked_files[0], "--test", worked_files[1]]
        for out, reason in [(tmp_path / "missing" / "o.csv", "No such file or directory"),
                            (tmp_path, "Is a directory")]:
            assert main(argv + ["--out", str(out)]) == 2
            assert f"error: cannot write --out {out}: {reason}" in capsys.readouterr().err

    def test_an_unwritable_replay_file_is_a_configuration_error(self, tmp_path):
        argv = ["audit", "--trials", "20", "--n", "8", "--d", "3", "--alpha", "0.2",
                "--out", str(tmp_path / "audit.csv"), "--replay-out", str(tmp_path)]
        done = run_probe(_LEAKY_OLS + _PROBE, "json", *argv)
        assert done.stdout.split() == ["2", "json"]
        # The failed audit and its count stay visible beside the write error.
        assert (f"error: audit FAILED: 4 violation(s); cannot write --replay-out {tmp_path}: "
                "Is a directory") in done.stderr
        assert (tmp_path / "audit.csv").read_text().splitlines()[-1] == "20,8,0.2,both,4"

    def test_unknown_method(self, worked_files, capsys):
        train, test = worked_files
        rc = main(["intervals", "--train", train, "--test", test, "--method", "magic"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_regressor_is_an_argparse_error(self, worked_files, capsys):
        train, test = worked_files
        rc = main(["intervals", "--train", train, "--test", test, "--regressor", "tree"])
        assert rc == 2
        capsys.readouterr()

    def test_inflation_rejected_for_set_methods(self, worked_files, capsys):
        train, test = worked_files
        rc = main(
            ["intervals", "--train", train, "--test", test, "--regressor", "mean",
             "--alpha", "0.25", "--eps", "0.1", "--method", "cross-conformal"]
        )
        assert rc == 2
        capsys.readouterr()

    def test_nan_inflation_is_a_configuration_error(self, worked_files, tmp_path, capsys):
        train, test = worked_files
        out = tmp_path / "o.csv"
        for eps in ("nan", "inf"):
            rc = main(["intervals", "--train", train, "--test", test, "--method", "naive",
                       "--eps", eps, "--out", str(out)])
            assert rc == 2
            assert "inflation_eps" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("header", ["x2,x1", "foo,bar"], ids=["swapped", "renamed"])
    def test_test_columns_must_match_the_training_columns(self, header, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,y\n0,1,0\n1,0,1\n2,2,3\n")
        test = tmp_path / "test.csv"
        test.write_text(f"{header}\n1,2\n")
        out = tmp_path / "o.csv"
        rc = main(["intervals", "--train", str(train), "--test", str(test),
                   "--regressor", "mean", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(header.split(",")) in err and "['x1', 'x2']" in err
        assert not out.exists()
        test.write_text("y,x1,x2\n5,1,2\n")  # the same names, target anywhere
        assert main(["intervals", "--train", str(train), "--test", str(test),
                     "--regressor", "mean", "--out", str(out)]) == 0

    def test_split_fraction_out_of_range(self, worked_files, tmp_path, capsys):
        train, test = worked_files
        out = tmp_path / "o.csv"
        rc = main(["intervals", "--train", train, "--test", test, "--method", "split",
                   "--method", "jackknife+", "--split-fraction", "1.5", "--out", str(out)])
        assert rc == 2
        assert "split_holdout must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_folds_propagates(self, worked_files, capsys):
        train, test = worked_files
        rc = main(
            ["intervals", "--train", train, "--test", test, "--regressor", "mean",
             "--method", "cv+", "--k", "2", "--strict-folds"]
        )
        assert rc == 2
        assert "strict" in capsys.readouterr().err

    def test_oversized_audit(self, capsys):
        rc = main(["audit", "--n", "40", "--trials", "1"])
        assert rc == 2
        capsys.readouterr()

    def test_vacuous_parity_configuration(self, capsys):
        rc = main(
            ["simulate", "--experiment", "pathology-parity", "--n", "1000",
             "--trials", "1", "--n-test", "10"]
        )
        assert rc == 2
        assert "vacuous" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message, value",
        [("--eps", "eps must be > 0", "nan"), ("--alpha", "alpha must be in (0, 1)", "nan"),
         ("--eps", "eps must be finite", "inf")],
        ids=["--eps-eps must be > 0", "--alpha-alpha must be in (0, 1)", "--eps-inf"],
    )
    def test_nan_parity_configuration(self, flag, message, value, capsys):
        rc = main(["simulate", "--experiment", "pathology-parity", "--n", "100000", flag, value])
        assert rc == 2
        assert f"{message}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [(["--regressor", "memorizer", "--memorizer-eps", value], "memorizer eps")
         for value in ("nan", "inf")]
        + [(["--regressor", "ridge", "--ridge-lambda", value], "ridge lambda_rel")
           for value in ("nan", "inf")],
        ids=["memorizer-eps-nan", "memorizer-eps-inf", "ridge-lambda-nan", "ridge-lambda-inf"],
    )
    def test_non_finite_regressor_setting(self, worked_files, argv, message, tmp_path, capsys):
        train, test = worked_files
        out = tmp_path / "o.csv"
        rc = main(["intervals", "--train", train, "--test", test, "--method", "naive",
                   "--out", str(out)] + argv)
        assert rc == 2
        assert f"{message} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_stability_epsilon(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["stability", "--epsilon", "nan", "--trials", "5", "--out", str(out)])
        assert rc == 2
        assert "epsilon must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_simulate_needs_a_trial(self, experiment, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["simulate", "--experiment", experiment, "--trials", "0", "--n", "40000",
                   "--alpha", "0.25", "--out", str(out)])
        assert rc == 2
        assert "trials must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["figure2", "coverage-mc", "pathology-memorizer",
                                            "pathology-parity"])
    def test_simulate_needs_a_test_row(self, experiment, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["simulate", "--experiment", experiment, "--n-test", "0", "--n", "10",
                   "--d-list", "2", "--d", "2", "--trials", "2", "--out", str(out)])
        assert rc == 2
        assert "n_test must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "figure2", "--d-list", ""], "d_list must name at least one"),
        (["--experiment", "coverage-mc", "--regressors", ""], "regressors must name at least one"),
    ], ids=["d-list", "regressors"])
    def test_simulate_needs_an_experiment_list_entry(self, argv, message, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["simulate", *argv, "--trials", "2", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "figure2", "--d-list", "20,20"], "d_list must not repeat"),
        (["--experiment", "coverage-mc", "--regressors", "mean,mean"],
         "regressors must not repeat"),
        (["--experiment", "coverage-mc", "--alphas", "0.1,0.1"], "alphas must not repeat"),
    ], ids=["d-list", "regressors", "alphas"])
    def test_simulate_rejects_a_repeated_list_entry(self, argv, message, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["simulate", *argv, "--trials", "2", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "figure2", "--d-list", "20,x"],
         "expected a comma-separated list of integers, got '20,x'"),
        (["--experiment", "coverage-mc", "--alphas", "0.1, x"],
         "expected a comma-separated list of numbers, got '0.1, x'"),
        (["--experiment", "coverage-mc", "--k-list", "2, 5x"],
         "fold counts must be integers or 'n', got '5x'"),
        (["--experiment", "coverage-mc", "--regressors", "tree,mean"],
         "unknown regressor 'tree'; expected one of ols, ridge, knn, mean, memorizer, parity"),
    ], ids=["d-list", "alphas", "k-list", "regressors"])
    def test_simulate_rejects_a_malformed_list_entry(self, argv, message, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["simulate", *argv, "--trials", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_leave_one_out_needs_two_rows(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["simulate", "--experiment", "pathology-memorizer", "--n", "1",
                   "--trials", "2", "--out", str(out)])
        assert rc == 2
        assert "jackknife needs at least 2 training rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_audit_needs_a_trial(self, trials, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["audit", "--trials", trials, "--n", "5", "--out", str(out)])
        assert rc == 2
        assert f"trials must be >= 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "coverage-mc", "--k-list", "0", "--trials", "2"],
        ["intervals", "--method", "cv+", "--k", "0"],
    ], ids=["coverage-mc", "intervals"])
    def test_zero_folds(self, argv, worked_files, tmp_path, capsys):
        train, test = worked_files
        if argv[0] == "intervals":
            argv = argv + ["--train", train, "--test", test]
        out = tmp_path / "o.csv"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert "k_folds must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["jackknife+", "naive", "full-conformal"])
    def test_ridge_penalty_overflow_is_a_data_error(self, tmp_path, method, capsys):
        # sigma_max(X) is about 1e201, so sigma_max(X)^2 overflows a double.
        rng = derive_rng(2, "huge-features")
        rows = [f"{1e200 * a:.17g},{1e200 * b:.17g},{c:.17g}"
                for a, b, c in rng.standard_normal((20, 3))]
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        test.write_text("x1,x2\n1e200,-1e200\n")
        rc = main(["intervals", "--train", str(train), "--test", str(test),
                   "--regressor", "ridge", "--method", method, "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "ridge penalty scale" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_prediction_is_a_data_error(self, tmp_path, capsys):
        data, _ = gen_gaussian_linear(20, 2, seed=4)
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_csv(train, data)
        test.write_text("x1,x2\n1e308,1e308\n")
        rc = main(["intervals", "--train", str(train), "--test", str(test),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err

    def test_overflowing_knn_distances_are_a_data_error(self, tmp_path, capsys):
        # Rows 2e308 apart overflow the squared distance. A RuntimeWarning is
        # an error under the test settings, so none may escape either.
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n1e308,0\n-1e308,1\n0,2\n1,3\n2,4\n")
        test.write_text("x,y\n1,0\n")
        rc = main(["intervals", "--train", str(train), "--test", str(test),
                   "--regressor", "knn", "--knn-k", "2", "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "knn distances overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["naive", "split", "jackknife", "jackknife+",
                                        "jackknife-mm", "cv+", "full-conformal"])
    @pytest.mark.parametrize("regressor", ["mean", "ols", "ridge"])
    def test_extreme_responses_give_one_error_line(self, tmp_path, capsys, regressor, method):
        # Means, residuals and ridge's centred solve overflow: the DataError
        # is the only line on stderr, with no RuntimeWarning before it. The
        # ols full fit passes through the origin, so naive gives [-inf, inf];
        # so does the mean with split, whose holdout residuals are finite.
        # The ols refits of full conformal keep finite residuals and accept
        # the whole grid [0, 1].
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n0,1e308\n1,1.7e308\n2,1.6e308\n3,-1.7e308\n")
        test.write_text("x,y\n0.5,0\n")
        grid = ["--grid-lower", "0", "--grid-upper", "1", "--grid-points", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["intervals", "--train", str(train), "--test", str(test), "--regressor",
                       regressor, "--method", method, "--out", str(tmp_path / "o.csv")]
                      + (grid if method == "full-conformal" else []))
        err = capsys.readouterr().err.splitlines()
        finite = {("ols", "naive"): ["-inf", "inf"], ("mean", "split"): ["-inf", "inf"],
                  ("ols", "full-conformal"): ["0.0", "1.0"]}
        if (regressor, method) in finite:
            assert (rc, err) == (0, [])
            assert (data_rows((tmp_path / "o.csv").read_text())[1][0][3:5]
                    == finite[regressor, method])
        else:
            assert rc == 3
            assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.filterwarnings("default:k_folds=:UserWarning")
    def test_a_warning_is_one_line_on_stderr(self, tmp_path, worked_files, capsys):
        # It printed the warning's file and line, then the source line that
        # raised it. Each run shows it, and the CSV is the one a run that
        # ignores warnings writes.
        train, test = worked_files
        argv = ["intervals", "--train", train, "--test", test, "--regressor", "mean",
                "--alpha", "0.5", "--method", "cv+", "--k", "2"]
        line = "warning: k_folds=2 does not divide n=3; fold sizes will differ by one\n"
        texts = []
        for _ in range(2):
            rc, text = run_to_file(tmp_path, argv)
            assert (rc, capsys.readouterr().err) == (0, line)
            texts.append(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            texts.append(run_to_file(tmp_path, argv)[1])
        assert capsys.readouterr().err == ""
        assert texts[0] == texts[1] == texts[2]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["intervals", "--help"]) == 0
        capsys.readouterr()


class TestAuditCommand:
    def test_clean_audit(self, tmp_path):
        replay = tmp_path / "replay.json"
        out = tmp_path / "audit.csv"
        rc = main(
            ["audit", "--trials", "5", "--n", "5", "--alpha", "0.25",
             "--regressor", "mean", "--out", str(out), "--replay-out", str(replay)]
        )
        assert rc == 0
        header, rows = data_rows(out.read_text())
        assert header == ["trials", "n", "alpha", "variant", "violations"]
        assert rows == [["5", "5", "0.25", "both", "0"]]
        assert not replay.exists()


class TestStabilityCommand:
    @pytest.mark.parametrize("argv, message", [
        (["--regressor", "memorizer", "--memorizer-eps", "1e308"], "trial 0: the predictions"),
        (["--regressor", "ridge", "--ridge-lambda", "1e308"], "ridge lambda_rel 1e+308"),
    ], ids=["memorizer", "ridge"])
    def test_non_finite_predictions_are_a_data_error(self, tmp_path, capsys, argv, message):
        # A NaN difference is never above epsilon, so a non-finite prediction
        # (inf, or a ridge fit whose penalty overflows) must not read stable.
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["stability", "--trials", "3", "--out", str(out)] + argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not out.exists()

    def test_row_is_internally_consistent(self, tmp_path):
        rc, text = run_to_file(
            tmp_path,
            ["stability", "--n", "12", "--d", "2", "--trials", "40",
             "--epsilon", "0.5", "--alpha", "0.1", "--regressor", "mean"],
        )
        assert rc == 0
        header, rows = data_rows(text)
        row = dict(zip(header, rows[0]))
        assert row["kind"] == "out_of_sample"
        assert row["n"] == "12" and row["trials"] == "40"
        nu_hat = float(row["nu_hat"])
        assert nu_hat == int(row["violations"]) / 40
        bounds = coverage_lower_bounds(0.1, nu_hat, 12, 12)
        assert float(row["bound_jackknife_eps"]) == bounds["jackknife_eps_inflated"]
        assert float(row["bound_jackknife_plus_2eps"]) == bounds["jackknife_plus_2eps_inflated"]
        assert float(row["bound_naive_2eps"]) == bounds["naive_2eps_inflated"]


def parity_default(key):
    return inspect.signature(pathology_parity).parameters[key].default


class TestSimulateCommand:
    def test_figure2_row_layout(self, tmp_path):
        rc, text = run_to_file(
            tmp_path,
            ["simulate", "--experiment", "figure2", "--n", "12", "--d-list", "2,4",
             "--trials", "2", "--n-test", "5", "--alpha", "0.2"],
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header == ["d", "method", "coverage_mean", "coverage_se",
                          "width_mean", "width_se"]
        assert len(rows) == 12  # 2 dimensions x 6 methods
        assert sorted({r[0] for r in rows}) == ["2", "4"]
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0

    @pytest.mark.parametrize("k, label, echoed", [("5", "cv+(K=5)", "5"), ("7", "cv+", "n")])
    def test_figure2_uses_and_echoes_the_fold_count(self, tmp_path, k, label, echoed):
        rc, text = run_to_file(
            tmp_path,
            ["simulate", "--experiment", "figure2", "--n", "100", "--d-list", "2",
             "--trials", "1", "--n-test", "2", "--k", k],
        )
        assert rc == 0
        assert f"# k={echoed}" in text.splitlines()
        _, rows = data_rows(text)
        assert rows[-1][1] == label

    def test_coverage_mc_row_layout(self, tmp_path):
        rc, text = run_to_file(
            tmp_path,
            ["simulate", "--experiment", "coverage-mc", "--n", "8", "--d", "2",
             "--trials", "2", "--n-test", "3", "--alphas", "0.2",
             "--regressors", "mean", "--k-list", "2,n"],
        )
        assert rc == 0
        header, rows = data_rows(text)
        assert header[:3] == ["regressor", "method", "alpha"]
        assert [r[1] for r in rows] == [
            "jackknife+", "jackknife-mm", "split", "cv+(K=2)", "cv+",
        ]

    def test_memorizer_pathology_rows(self, tmp_path):
        rc, text = run_to_file(
            tmp_path,
            ["simulate", "--experiment", "pathology-memorizer", "--n", "6",
             "--trials", "3", "--n-test", "4", "--alpha", "0.2"],
        )
        assert rc == 0
        _, rows = data_rows(text)
        cells = {r[0]: r for r in rows}
        assert list(cells) == ["naive", "jackknife", "jackknife+"]
        for label, want in (("naive", "0.0"), ("jackknife", "0.0"), ("jackknife+", "1.0")):
            assert cells[label][2] == want  # coverage_mean
            assert cells[label][3] == want  # coverage_min
            assert cells[label][4] == want  # coverage_max

    def test_parity_pathology_row(self, tmp_path):
        rc, text = run_to_file(
            tmp_path,
            ["simulate", "--experiment", "pathology-parity", "--n", "40000",
             "--trials", "1", "--n-test", "200", "--alpha", "0.25"],
        )
        assert rc == 0
        header, rows = data_rows(text)
        row = dict(zip(header, rows[0]))
        assert row["n"] == "40000" and row["evals"] == "200"
        assert float(row["tau"]) == 0.01 * 40000
        assert 0.3 <= float(row["coverage_mean"]) <= float(row["bound_upper"]) + 0.1

    def test_parity_takes_the_library_defaults_of_unset_flags(self, tmp_path):
        rc, text = run_to_file(tmp_path, ["simulate", "--experiment", "pathology-parity"])
        assert rc == 0
        for key in ("n", "alpha", "trials", "n_test", "eps"):
            assert f"# {key}={parity_default(key)}" in text.splitlines()
        header, rows = data_rows(text)
        row = dict(zip(header, rows[0]))
        assert row["n"] == str(parity_default("n"))
        assert row["evals"] == str(parity_default("trials") * parity_default("n_test"))

    def test_parity_passes_only_the_flags_given(self, tmp_path):
        rc, text = run_to_file(
            tmp_path,
            ["simulate", "--experiment", "pathology-parity", "--n", "40000", "--n-test", "10"],
        )
        assert rc == 0
        for key in ("alpha", "trials"):
            assert f"# {key}={parity_default(key)}" in text.splitlines()
        header, rows = data_rows(text)
        assert dict(zip(header, rows[0]))["evals"] == str(parity_default("trials") * 10)

    def test_other_experiments_resolve_unset_flags_to_the_shared_defaults(self, tmp_path):
        rc, text = run_to_file(tmp_path, ["simulate", "--experiment", "pathology-memorizer"])
        assert rc == 0
        echo = text.splitlines()
        for line in ("# n=100", "# alpha=0.1", "# trials=20", "# n_test=100"):
            assert line in echo
        _, rows = data_rows(text)
        assert {r[1] for r in rows} == {"20"}


def field_default(token, field):
    return next(f.default for f in dataclasses.fields(_CLASSES[token]) if f.name == field)


class TestRegressorFlags:
    @pytest.mark.parametrize("argv", [
        ["intervals", "--train", "train.csv", "--test", "test.csv"], ["audit"], ["stability"],
    ], ids=lambda argv: argv[0])
    def test_flag_defaults_are_the_class_defaults(self, argv):
        args = build_parser().parse_args(argv)
        for name, (token, field) in _SETTINGS.items():
            assert getattr(args, name) == field_default(token, field), name

    def test_simulate_memorizer_eps_default_is_the_class_default(self):
        args = build_parser().parse_args(["simulate", "--experiment", "pathology-memorizer"])
        assert args.memorizer_eps == field_default("memorizer", "eps")

    @pytest.mark.parametrize("flags", [
        [],
        ["--ridge-lambda", "0.5", "--no-intercept", "--knn-k", "3", "--memorizer-eps", "0.25",
         "--parity-tau", "2.5"],
    ], ids=["defaults", "set"])
    @pytest.mark.parametrize("token", REGRESSOR_TOKENS)
    def test_echo_is_the_built_regressors_fields(self, token, flags):
        args = build_parser().parse_args(["audit", "--regressor", token] + flags)
        regressor, echo = _regressor(args)
        assert echo.pop("regressor") == regressor.token == token
        assert {_SETTINGS[name][1]: value for name, value in echo.items()} == {
            f.name: getattr(regressor, f.name) for f in dataclasses.fields(regressor)
        }
        for name, value in echo.items():
            assert value == getattr(args, name)


def echo_lines(text):
    """The ``# key=value`` lines of a CSV as a dict of strings."""
    return dict(line[2:].split("=", 1) for line in text.splitlines()
                if line.startswith("# ") and "=" in line)


class TestEcho:
    REGRESSOR_FLAGS = ["--regressor", "ridge", "--ridge-lambda", "0.5", "--no-intercept",
                       "--knn-k", "2", "--memorizer-eps", "0.5", "--parity-tau", "2.0"]

    def test_every_flag_is_echoed_or_excluded(self, tmp_path, worked_files):
        train, test = worked_files
        cases = {
            "intervals": ["intervals", "--train", train, "--test", test, "--target", "y",
                          "--method", "jackknife+", "--method", "cv+", "--alpha", "0.2",
                          "--alpha-lo", "0.1", "--alpha-hi", "0.1", "--eps", "0.5", "--k", "3",
                          "--strict-folds", "--split-fraction", "0.25", "--grid-points", "5",
                          "--grid-lower", "-1", "--grid-upper", "1", "--seed", "3"],
            "audit": ["audit", "--n", "4", "--d", "1", "--trials", "2", "--alpha", "0.25",
                      "--variant", "plus", "--seed", "3",
                      "--replay-out", str(tmp_path / "replay.json")],
            "stability": ["stability", "--n", "6", "--d", "1", "--epsilon", "0.5", "--kind",
                          "in_sample", "--trials", "3", "--alpha", "0.2", "--seed", "3"],
        }
        resolved = {"intervals": {"methods": "jackknife+;cv+", "k": "3"}}
        for name, argv in cases.items():
            args = build_parser().parse_args(argv + self.REGRESSOR_FLAGS)
            rc, text = run_to_file(tmp_path, argv + self.REGRESSOR_FLAGS)
            assert rc == 0, name
            echo = echo_lines(text)
            given = {key: str(value) for key, value in vars(args).items() if key not in _UNECHOED}
            assert echo == {**given, **resolved.get(name, {}), "regressor": "ridge",
                            "ridge_lambda": "0.5", "intercept": "False"}, name

    def test_the_simulate_table_names_simulate_flags(self):
        dests = set(vars(build_parser().parse_args(["simulate", "--experiment", "figure2"])))
        assert set(_SIMULATE_ECHO) == set(EXPERIMENTS) - {"pathology-parity"}
        for keys in _SIMULATE_ECHO.values():
            assert set(keys) <= dests

    def test_spec_flag_defaults_are_the_class_defaults(self):
        args = build_parser().parse_args(["intervals", "--train", "a.csv", "--test", "b.csv"])
        assert args.split_fraction == MethodSpec("split").split_holdout
        assert args.grid_points == GridSpec().num_points
        assert args.eps == IntervalSpec(0.1).inflation_eps


class TestDeterminism:
    CASES = {
        "intervals": None,  # filled in per tmp_path
        "audit": ["audit", "--trials", "4", "--n", "4", "--alpha", "0.3",
                  "--regressor", "mean"],
        "stability": ["stability", "--n", "8", "--d", "1", "--trials", "20",
                      "--epsilon", "0.3", "--regressor", "mean"],
        "simulate": ["simulate", "--experiment", "coverage-mc", "--n", "6",
                     "--d", "1", "--trials", "2", "--n-test", "2",
                     "--alphas", "0.2", "--regressors", "mean", "--k-list", "2"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reruns_are_byte_identical(self, name, tmp_path, worked_files):
        train, test = worked_files
        argv = self.CASES[name] or [
            "intervals", "--train", train, "--test", test, "--alpha", "0.25",
            "--regressor", "mean", "--method", "jackknife+",
            "--method", "cross-conformal",
        ]
        _, first = run_to_file(tmp_path, argv, "a.csv")
        _, second = run_to_file(tmp_path, argv, "b.csv")
        assert first == second
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert a.read_bytes() == b.read_bytes()


GOLDEN_INTERVALS = """\
# predint intervals
# alpha=0.5
# alpha_hi=None
# alpha_lo=None
# eps=0.0
# grid_lower=None
# grid_points=200
# grid_upper=None
# k=n
# methods=naive;jackknife+;cross-conformal
# regressor=mean
# seed=3
# split_fraction=0.5
# strict_folds=False
# target=y
# test={test}
# train={train}
test_index,method,alpha,lower,upper,components,covered
0,naive,0.5,0.0,3.6666666666666665,0.0:3.6666666666666665,1
0,jackknife+,0.5,0.0,4.4,0.0:4.4,1
0,cross-conformal,0.5,0.20000000000000018,3.0,0.20000000000000018:3.0,0
1,naive,0.5,0.0,3.6666666666666665,0.0:3.6666666666666665,1
1,jackknife+,0.5,0.0,4.4,0.0:4.4,1
1,cross-conformal,0.5,0.20000000000000018,3.0,0.20000000000000018:3.0,1
"""

GOLDEN_SIMULATE = """\
# predint simulate
# alpha=0.1
# experiment=pathology-memorizer
# memorizer_eps=1.0
# n=10
# n_test=5
# seed=3
# trials=2
method,trials,coverage_mean,coverage_min,coverage_max,width_mean
naive,2,0.0,0.0,0.0,0.0
jackknife,2,0.0,0.0,0.0,36.0
jackknife+,2,1.0,1.0,1.0,36.0
"""


class TestStreamedOutput:
    """CSVs are written row by row; the bytes are those the commands wrote
    when the whole text was joined first."""

    @pytest.fixture
    def golden_cases(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n0,0\n1,0\n2,3\n3,1\n4,5\n5,2\n")
        test.write_text("x,y\n1,0\n2.5,1\n")
        intervals = ["intervals", "--train", str(train), "--test", str(test), "--alpha", "0.5",
                     "--regressor", "mean", "--method", "naive", "--method", "jackknife+",
                     "--method", "cross-conformal", "--seed", "3"]
        simulate = ["simulate", "--experiment", "pathology-memorizer", "--n", "10",
                    "--trials", "2", "--n-test", "5", "--seed", "3"]
        return [(intervals, GOLDEN_INTERVALS.format(train=train, test=test)),
                (simulate, GOLDEN_SIMULATE)]

    def test_stdout_and_out_give_the_golden_bytes(self, golden_cases, tmp_path, capsys):
        for argv, golden in golden_cases:
            assert main(argv) == 0
            assert capsys.readouterr().out == golden
            out = tmp_path / "out.csv"
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == golden.encode()

    def test_rows_may_be_a_generator(self, tmp_path):
        out = tmp_path / "out.csv"
        _write_output(str(out), {"b": 2, "a": 1}, "demo", ["h", "k"],
                      ([i, i * i] for i in range(3)))
        assert out.read_text() == "# predint demo\n# a=1\n# b=2\nh,k\n0,0\n1,1\n2,4\n"

    @pytest.fixture
    def failing_row_three(self, monkeypatch, golden_cases):
        """The intervals argv, with the interval row formatter raising on its
        third call, after the CSV has its first rows."""
        calls = []

        def cells_or_fail(lower, upper):
            calls.append((lower, upper))
            if len(calls) == 3:
                raise DataError("row 3 cannot be formatted")
            return _interval_cells(lower, upper)

        monkeypatch.setattr(predint.cli, "_interval_cells", cells_or_fail)
        return golden_cases[0][0]

    def test_a_failing_row_leaves_no_partial_file(self, failing_row_three, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_text("an older result\n")
        assert main(failing_row_three + ["--out", str(out)]) == 3
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failing_row_never_unlinks_a_symlink(self, failing_row_three, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("")
        link.symlink_to(target)
        assert main(failing_row_three + ["--out", str(link)]) == 3
        capsys.readouterr()
        assert link.is_symlink() and target.exists()


class TestFormatObject:
    def test_interval(self):
        assert format_object(PredictionInterval(-1.0, 2.5)) == ("-1.0", "2.5", "-1.0:2.5")

    def test_multi_component_set(self):
        s = PredictionSet.from_intervals(
            [PredictionInterval(0.0, 1.0), PredictionInterval(2.0, 3.0)]
        )
        assert format_object(s) == ("0.0", "3.0", "0.0:1.0;2.0:3.0")

    def test_empty_set(self):
        lower, upper, comps = format_object(PredictionSet.from_intervals([]))
        assert (lower, upper, comps) == ("inf", "-inf", "")

    def test_infinite_cells_round_trip(self):
        lower, upper, _ = format_object(PredictionInterval(-math.inf, math.inf))
        assert float(lower) == -math.inf and float(upper) == math.inf
