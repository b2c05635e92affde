"""Dataset validation, the CLI's CSV reader, splits, and the synthetic generators."""

import math
import random
import re

import numpy as np
import pytest

from predint import (
    ConfigError,
    DataError,
    Dataset,
    SplitSpec,
    gen_gaussian_linear,
    gen_pathological_abc,
)
from predint.dataset import _load_columns, _load_dataset
from predint.rng import _normals


def box_muller_reference(seed, count):
    """``count`` normals by Box-Muller on pairs of random.Random(seed) draws,
    cos then sin, written as a plain loop."""
    draw, out = random.Random(seed).random, []
    while len(out) < count:
        u1, u2 = draw(), draw()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return out[:count]


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

    def test_adopting_path_freezes_in_place_and_checks(self):
        # The generators' private path: no copy, the same freeze and checks.
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([5.0, 6.0])
        data = Dataset._adopt(X, y)
        assert data.features is X and data.responses is y
        assert not (X.flags.writeable or y.flags.writeable)
        with pytest.raises(DataError, match="finite"):
            Dataset._adopt(np.array([[1.0], [math.nan]]), np.zeros(2))
        with pytest.raises(DataError, match="finite"):
            Dataset._adopt(np.ones((2, 1)), np.array([0.0, math.inf]))
        with pytest.raises(DataError, match="row mismatch"):
            Dataset._adopt(np.ones((2, 1)), np.zeros(3))
        tagged = gen_pathological_abc(50, 0.25, 0.1, seed=2, tau=3.0)
        assert not (tagged.features.flags.writeable or tagged.responses.flags.writeable)

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
    """The CLI's loaders: ``_load_dataset`` needs the target column,
    ``_load_columns`` (the test file's) takes it when present."""

    def test_load_basic(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y,b\n1,2,3\n4,5,6\n")
        names, data = _load_dataset(str(path), "y")
        assert names == ["a", "b"]
        assert data.features.tolist() == [[1.0, 3.0], [4.0, 6.0]]
        assert data.responses.tolist() == [2.0, 5.0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        assert _load_dataset(str(path), "y")[1].n == 2

    def test_table_shape_from_the_cells(self, tmp_path):
        # The cells are parsed into one flat buffer and reshaped by the header.
        path = tmp_path / "t.csv"
        path.write_text("x1\n1\n\n-2.5e-3\n")
        _, X, y = _load_columns(str(path), "y")
        assert X.shape == (2, 1) and X.tolist() == [[1.0], [-0.0025]] and y is None
        path.write_text("x1,y\n\n \n")
        with pytest.raises(DataError, match="no data rows"):
            _load_dataset(str(path), "y")

    def test_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,2\nnan,4\n")
        with pytest.raises(DataError, match=r"row 2, column 'x1'"):
            _load_dataset(str(path), "y")

    def test_inf_tokens_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,-inf\n")
        with pytest.raises(DataError, match="non-finite"):
            _load_dataset(str(path), "y")

    def test_unparsable_cell(self, tmp_path):
        # Tokens with an inner space are not numbers, whatever they spell.
        path = tmp_path / "t.csv"
        for token in ("two", "in f", "- inf", "n a n"):
            path.write_text(f"x1,y\n1,{token}\n")
            with pytest.raises(DataError) as info:
                _load_dataset(str(path), "y")
            assert str(info.value) == (
                f"{path}: row 1, column 'y': cannot parse {token!r} as a number")

    def test_missing_and_duplicate_target(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,x2\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            _load_dataset(str(path), "y")
        path.write_text("y,y\n1,2\n")
        with pytest.raises(DataError, match="twice"):
            _load_dataset(str(path), "y")

    def test_target_only_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y\n1\n")
        with pytest.raises(DataError, match="no feature columns"):
            _load_dataset(str(path), "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2 has 1 cells"):
            _load_dataset(str(path), "y")

    def test_empty_and_missing_files(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            _load_dataset(str(path), "y")
        with pytest.raises(DataError, match="cannot read"):
            _load_dataset(str(tmp_path / "nope.csv"), "y")

    def test_bytes_that_are_not_text_name_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x,y\n1,\xff\xfe\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: not [\w-]+ text: "):
            _load_dataset(str(path), "y")

    def test_an_oversized_field_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('x,y\n1,2\n3,"' + "4" * 200_000 + '"\n')
        with pytest.raises(DataError) as info:
            _load_dataset(str(path), "y")
        assert str(info.value).startswith(f"{path}: line 3: field larger than field limit")

    def test_features_csv_with_and_without_target(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,y\n1,2\n")
        _, X, y = _load_columns(str(path), "y")
        assert X.tolist() == [[1.0]] and y.tolist() == [2.0]
        path.write_text("x1,x2\n1,2\n")
        _, X, y = _load_columns(str(path), "y")
        assert X.tolist() == [[1.0, 2.0]] and y is None


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

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(holdout_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitSpec(holdout_fraction=1.0)
        with pytest.raises(ConfigError, match="fewer than 2"):
            SplitSpec(holdout_fraction=0.5).resolve(1)

    @pytest.mark.parametrize("n", [4.5, "4", None, True])
    def test_row_count_must_be_an_integer(self, n):
        # A float raised a raw TypeError.
        with pytest.raises(ConfigError, match="n must be an integer"):
            SplitSpec(holdout_fraction=0.5).resolve(n)


class TestNormals:
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_draws_match_the_box_muller_reference(self, count):
        for seed in (0, 3, 2**64 - 1):
            got = _normals(seed, count)
            assert got.tobytes() == np.array(box_muller_reference(seed, count)).tobytes()

    def test_moments(self):
        # Mean 0 and variance 1, each within 4 standard errors: 1/sqrt(N) for
        # the mean and sqrt(2/N) for the variance of a normal sample.
        count = 100_000
        z = _normals(12, count)
        assert abs(float(z.mean())) < 4.0 / math.sqrt(count)
        assert abs(float(z.var()) - 1.0) < 4.0 * math.sqrt(2.0 / count)


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

    def test_draws_match_the_box_muller_reference(self):
        n, d, seed = 7, 3, 5
        z = box_muller_reference(seed, n * d + d + n)
        X = np.array(z[: n * d]).reshape(n, d)
        u = np.array(z[n * d : n * d + d])
        beta = math.sqrt(10.0) * u / float(np.linalg.norm(u))
        data, got_beta = gen_gaussian_linear(n, d, seed)
        assert data.features.tobytes() == X.tobytes()
        assert got_beta.tobytes() == beta.tobytes()
        assert data.responses.tobytes() == (X @ beta + np.array(z[n * d + d :])).tobytes()

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
        draw, rows = random.Random(seed).random, []
        for _ in range(n):
            u1, u2, u3 = draw(), draw(), draw()
            rows.append([float(u1 < 2.0 * alpha * (1.0 - gamma)),
                         -1.0 if u2 < 0.5 else 1.0, 2.0 * u3 - 1.0])
        data = gen_pathological_abc(n, alpha, gamma, seed)
        assert data.features.tobytes() == np.array(rows).tobytes()

    def test_rate_validation(self):
        with pytest.raises(ConfigError, match="2\\*alpha"):
            gen_pathological_abc(10, alpha=0.5, gamma=0.0, seed=0)  # p = 1
        with pytest.raises(ConfigError):
            gen_pathological_abc(10, alpha=0.25, gamma=1.0, seed=0)  # p = 0
        with pytest.raises(ConfigError):
            gen_pathological_abc(0, alpha=0.25, gamma=0.1, seed=0)

    @pytest.mark.parametrize("name, alpha, gamma", [("alpha", "0.25", 0.1), ("gamma", 0.25, None),
                                                    ("alpha", True, 0.1)])
    def test_rates_must_be_real(self, name, alpha, gamma):
        # A string alpha raised a raw TypeError from the product.
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            gen_pathological_abc(10, alpha, gamma, 0)

    def test_attach_tau(self):
        data = gen_pathological_abc(100, alpha=0.25, gamma=0.1, seed=1)
        tagged = gen_pathological_abc(100, alpha=0.25, gamma=0.1, seed=1, tau=7.0)
        assert not data.responses.any()
        assert np.array_equal(tagged.responses, 7.0 * data.features[:, 0])
        assert np.array_equal(tagged.features, data.features)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="^tau must be finite"):
                gen_pathological_abc(100, alpha=0.25, gamma=0.1, seed=1, tau=bad)
