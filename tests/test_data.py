"""Dataset validation, CSV round-trips, splits, and the synthetic generators."""

import math

import numpy as np
import pytest

from predint import (
    ConfigError,
    DataError,
    Dataset,
    SplitSpec,
    attach_tau,
    gen_gaussian_linear,
    gen_pathological_abc,
    load_csv,
    load_features_csv,
    save_csv,
    train_test_split,
)


def small():
    return Dataset([[0.0], [1.0], [2.0]], [0.0, 0.0, 3.0])


class TestDataset:
    def test_shapes_and_copies(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([5.0, 6.0])
        data = Dataset(X, y)
        assert data.n == 2 and data.d == 2
        X[0, 0] = 99.0  # the dataset must hold its own copy
        assert data.features[0, 0] == 1.0

    def test_arrays_are_frozen(self):
        data = small()
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.responses[0] = 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError, match="2-dimensional"):
            Dataset([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DataError, match="1-dimensional"):
            Dataset([[1.0], [2.0]], [[1.0], [2.0]])
        with pytest.raises(DataError, match="row mismatch"):
            Dataset([[1.0], [2.0]], [1.0])
        with pytest.raises(DataError, match="at least one column"):
            Dataset(np.empty((2, 0)), [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="finite"):
            Dataset([[math.nan]], [1.0])
        with pytest.raises(DataError, match="finite"):
            Dataset([[1.0]], [math.inf])

    def test_take_drop_head_tail(self):
        data = small()
        assert data.take([2, 0]).responses.tolist() == [3.0, 0.0]
        assert data.drop([1]).responses.tolist() == [0.0, 3.0]
        assert data.head(2).n == 2
        assert data.tail_from(2).responses.tolist() == [3.0]

    def test_empty_dataset_is_allowed(self):
        # Zero rows with a positive number of columns is legal; leave-one-out
        # and pairwise-deletion code relies on it.
        data = Dataset(np.empty((0, 3)), np.empty(0))
        assert data.n == 0 and data.d == 3


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        data, _ = gen_gaussian_linear(17, 3, seed=5)
        path = tmp_path / "data.csv"
        save_csv(data, str(path))
        back = load_csv(str(path), "y")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.responses, data.responses)

    def test_load_basic(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y,b\n1,2,3\n4,5,6\n")
        data = load_csv(str(path), "y")
        assert data.features.tolist() == [[1.0, 3.0], [4.0, 6.0]]
        assert data.responses.tolist() == [2.0, 5.0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        assert load_csv(str(path), "y").n == 2

    def test_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,2\nnan,4\n")
        with pytest.raises(DataError, match=r"row 2, column 'x1'"):
            load_csv(str(path), "y")

    def test_inf_tokens_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,-inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(str(path), "y")

    def test_unparsable_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,two\n")
        with pytest.raises(DataError, match="cannot parse 'two'"):
            load_csv(str(path), "y")

    def test_missing_and_duplicate_target(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,x2\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(str(path), "y")
        path.write_text("y,y\n1,2\n")
        with pytest.raises(DataError, match="twice"):
            load_csv(str(path), "y")

    def test_target_only_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y\n1\n")
        with pytest.raises(DataError, match="no feature columns"):
            load_csv(str(path), "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2 has 1 cells"):
            load_csv(str(path), "y")

    def test_empty_and_missing_files(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(str(path), "y")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "nope.csv"), "y")

    def test_features_csv_with_and_without_target(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,2\n")
        X, y = load_features_csv(str(path), "y")
        assert X.tolist() == [[1.0]] and y.tolist() == [2.0]
        path.write_text("x1,x2\n1,2\n")
        X, y = load_features_csv(str(path), "y")
        assert X.tolist() == [[1.0, 2.0]] and y is None

    def test_save_csv_validates_names(self, tmp_path):
        data = small()
        with pytest.raises(ConfigError):
            save_csv(data, str(tmp_path / "t.csv"), feature_columns=["a", "b"])
        with pytest.raises(ConfigError):
            save_csv(data, str(tmp_path / "t.csv"), target_column="x1")


class TestSplit:
    def test_resolve_partitions(self):
        train, hold = SplitSpec(holdout_fraction=0.3, seed=4).resolve(10)
        both = np.concatenate([train, hold])
        assert np.array_equal(np.sort(both), np.arange(10))
        assert len(hold) == 3
        assert np.array_equal(train, np.sort(train))

    def test_fraction_size_clamped(self):
        # round(2 * 0.5) = 1 on each side; neither part may be empty.
        train, hold = SplitSpec(holdout_fraction=0.5).resolve(2)
        assert len(train) == 1 and len(hold) == 1
        train, hold = SplitSpec(holdout_fraction=0.01).resolve(5)
        assert len(hold) == 1

    def test_deterministic_by_seed(self):
        a = SplitSpec(holdout_fraction=0.5, seed=7).resolve(20)
        b = SplitSpec(holdout_fraction=0.5, seed=7).resolve(20)
        c = SplitSpec(holdout_fraction=0.5, seed=8).resolve(20)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_explicit_indices(self):
        spec = SplitSpec(train_indices=(2, 0), holdout_indices=(1,))
        train, hold = spec.resolve(3)
        assert train.tolist() == [0, 2] and hold.tolist() == [1]
        with pytest.raises(ConfigError, match="partition"):
            spec.resolve(4)

    def test_explicit_indices_must_be_complete(self):
        with pytest.raises(ConfigError, match="both index lists"):
            SplitSpec(train_indices=(0, 1))

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(holdout_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitSpec(holdout_fraction=1.0)
        with pytest.raises(ConfigError, match="fewer than 2"):
            SplitSpec(holdout_fraction=0.5).resolve(1)

    def test_train_test_split(self):
        data = small()
        kept, held = train_test_split(
            data, SplitSpec(train_indices=(0, 1), holdout_indices=(2,))
        )
        assert kept.responses.tolist() == [0.0, 0.0]
        assert held.responses.tolist() == [3.0]


class TestGaussianLinear:
    def test_deterministic(self):
        a, beta_a = gen_gaussian_linear(50, 4, seed=3)
        b, beta_b = gen_gaussian_linear(50, 4, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(beta_a, beta_b)
        c, _ = gen_gaussian_linear(50, 4, seed=4)
        assert not np.array_equal(a.responses, c.responses)

    def test_coefficient_norm(self):
        for d in (1, 5, 40):
            _, beta = gen_gaussian_linear(2, d, seed=d)
            assert np.linalg.norm(beta) == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_response_variance(self):
        # Var(Y) = ||beta||^2 + 1 = 11 by construction.
        data, _ = gen_gaussian_linear(200_000, 6, seed=11)
        assert float(np.var(data.responses)) == pytest.approx(11.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_gaussian_linear(0, 2, seed=0)
        with pytest.raises(ConfigError):
            gen_gaussian_linear(2, 0, seed=0)


class TestPathologicalDesign:
    def test_columns(self):
        data = gen_pathological_abc(5000, alpha=0.25, gamma=0.1, seed=0)
        a, b, c = data.features[:, 0], data.features[:, 1], data.features[:, 2]
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert set(np.unique(b)) == {-1.0, 1.0}
        assert float(c.min()) >= -1.0 and float(c.max()) <= 1.0
        assert np.all(data.responses == 0.0)
        # P(A = 1) = 2 alpha (1 - gamma) = 0.45.
        assert float(a.mean()) == pytest.approx(0.45, abs=0.025)

    def test_draws_match_the_column_stack_reference(self):
        n, alpha, gamma, seed = 500, 0.25, 0.1, 3
        rng = np.random.default_rng(seed)
        a = (rng.random(n) < 2.0 * alpha * (1.0 - gamma)).astype(float)
        b = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
        c = rng.uniform(-1.0, 1.0, size=n)
        data = gen_pathological_abc(n, alpha, gamma, seed)
        assert data.features.tobytes() == np.column_stack([a, b, c]).tobytes()

    def test_rate_validation(self):
        with pytest.raises(ConfigError, match="2\\*alpha"):
            gen_pathological_abc(10, alpha=0.5, gamma=0.0, seed=0)  # p = 1
        with pytest.raises(ConfigError):
            gen_pathological_abc(10, alpha=0.25, gamma=1.0, seed=0)  # p = 0
        with pytest.raises(ConfigError):
            gen_pathological_abc(0, alpha=0.25, gamma=0.1, seed=0)

    def test_attach_tau(self):
        data = gen_pathological_abc(100, alpha=0.25, gamma=0.1, seed=1)
        tagged = attach_tau(data, 7.0)
        assert np.array_equal(tagged.responses, 7.0 * data.features[:, 0])
        assert np.array_equal(tagged.features, data.features)
        with pytest.raises(ConfigError):
            attach_tau(data, math.inf)
