"""Datasets: validated arrays, CSV round-tripping, splits, synthetic generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "SplitSpec",
    "load_csv",
    "load_features_csv",
    "save_csv",
    "train_test_split",
    "gen_gaussian_linear",
    "gen_pathological_abc",
    "attach_tau",
]

# Tokens that float() would happily parse but that are not data.
_NONFINITE_TOKENS = {"nan", "inf", "+inf", "-inf", "infinity", "+infinity", "-infinity"}


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable regression sample: features of shape (n, d), responses (n,).

    All entries must be finite floats. Arrays are copied and frozen at
    construction, so a Dataset can be shared across fitted models and caches
    without defensive copying downstream.
    """

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        X = np.array(self.features, dtype=float, copy=True)
        y = np.array(self.responses, dtype=float, copy=True)
        if X.ndim != 2:
            raise DataError(f"features must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1:
            raise DataError(f"responses must be 1-dimensional, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"row mismatch: {X.shape[0]} feature rows vs {y.shape[0]} responses"
            )
        if X.shape[1] == 0:
            raise DataError("features must have at least one column")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise DataError("datasets must be finite (no NaN or infinities)")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """New Dataset with the given rows, in the given order."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.responses[idx])

    def drop(self, indices) -> "Dataset":
        """New Dataset without the given rows (order of the rest preserved)."""
        mask = np.ones(self.n, dtype=bool)
        mask[np.asarray(indices, dtype=int)] = False
        return Dataset(self.features[mask], self.responses[mask])

    def head(self, k: int) -> "Dataset":
        return Dataset(self.features[:k], self.responses[:k])

    def tail_from(self, k: int) -> "Dataset":
        return Dataset(self.features[k:], self.responses[k:])


def _parse_cell(token: str, row: int, column: str) -> float:
    text = token.strip()
    if text.lower().replace(" ", "") in _NONFINITE_TOKENS:
        raise DataError(
            f"row {row}, column {column!r}: non-finite value {token!r} not allowed"
        )
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(
            f"row {row}, column {column!r}: cannot parse {token!r} as a number"
        ) from exc
    if not math.isfinite(value):
        raise DataError(
            f"row {row}, column {column!r}: non-finite value {token!r} not allowed"
        )
    return value


def _read_table(path: str):
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if any(not name for name in header):
            raise DataError(f"{path}: header has an empty column name")
        rows = []
        for number, raw in enumerate(reader, start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue  # ignore blank lines
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: row {number} has {len(raw)} cells, expected {len(header)}"
                )
            rows.append(
                [_parse_cell(cell, number, header[j]) for j, cell in enumerate(raw)]
            )
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.array(rows, dtype=float)


def load_csv(path: str, target_column: str) -> Dataset:
    """Load a CSV with a header row into a Dataset.

    The target column becomes the response; all other columns become features
    in file order. Raises :class:`DataError` with the offending row and column
    named for any malformed cell, and rejects nan/inf tokens outright.
    """
    header, table = _read_table(path)
    hits = [j for j, name in enumerate(header) if name == target_column]
    if not hits:
        raise DataError(f"{path}: target column {target_column!r} not found")
    if len(hits) > 1:
        raise DataError(f"{path}: target column {target_column!r} appears twice")
    target = hits[0]
    feature_cols = [j for j in range(len(header)) if j != target]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns besides the target")
    return Dataset(table[:, feature_cols], table[:, target])


def load_features_csv(path: str, target_column: str | None = None):
    """Load a CSV that may or may not carry the target column.

    Returns ``(features, responses_or_None)``. Used for test files, where the
    true response is optional.
    """
    header, table = _read_table(path)
    if target_column is not None and target_column in header:
        hits = [j for j, name in enumerate(header) if name == target_column]
        if len(hits) > 1:
            raise DataError(f"{path}: target column {target_column!r} appears twice")
        target = hits[0]
        feature_cols = [j for j in range(len(header)) if j != target]
        if not feature_cols:
            raise DataError(f"{path}: no feature columns besides the target")
        return table[:, feature_cols], table[:, target]
    return table, None


def save_csv(
    data: Dataset,
    path: str,
    target_column: str = "y",
    feature_columns: list[str] | None = None,
) -> None:
    """Write a Dataset as CSV with 17 significant digits (exact round-trip)."""
    if feature_columns is None:
        feature_columns = [f"x{j + 1}" for j in range(data.d)]
    if len(feature_columns) != data.d:
        raise ConfigError(
            f"{len(feature_columns)} feature names for {data.d} feature columns"
        )
    if target_column in feature_columns:
        raise ConfigError(f"target column {target_column!r} collides with a feature name")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(feature_columns + [target_column])
        for i in range(data.n):
            row = [f"{v:.17g}" for v in data.features[i]]
            row.append(f"{data.responses[i]:.17g}")
            writer.writerow(row)


@dataclass(frozen=True)
class SplitSpec:
    """How to split rows into a kept part and a held-out part.

    Either give ``holdout_fraction`` (rows are shuffled with ``seed`` and the
    first round(n * fraction) go to the holdout) or give both explicit index
    tuples, which must partition range(n).
    """

    holdout_fraction: float | None = 0.5
    train_indices: tuple[int, ...] | None = None
    holdout_indices: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        explicit = self.train_indices is not None or self.holdout_indices is not None
        if explicit:
            if self.train_indices is None or self.holdout_indices is None:
                raise ConfigError("explicit splits need both index lists")
        elif self.holdout_fraction is None:
            raise ConfigError("either holdout_fraction or explicit indices required")
        elif not 0 < self.holdout_fraction < 1:
            raise ConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )

    def resolve(self, n: int):
        """Return (train_idx, holdout_idx) as sorted integer arrays."""
        if self.train_indices is not None:
            train = np.asarray(self.train_indices, dtype=int)
            hold = np.asarray(self.holdout_indices, dtype=int)
            merged = np.concatenate([train, hold])
            if len(merged) != n or not np.array_equal(np.sort(merged), np.arange(n)):
                raise ConfigError("explicit split must partition the row indices")
            if train.size == 0 or hold.size == 0:
                raise ConfigError("both split parts must be non-empty")
            return np.sort(train), np.sort(hold)
        size = int(round(n * self.holdout_fraction))
        size = min(max(size, 1), n - 1)
        if n < 2:
            raise ConfigError("cannot split fewer than 2 rows")
        perm = np.random.default_rng(self.seed).permutation(n)
        return np.sort(perm[size:]), np.sort(perm[:size])


def train_test_split(data: Dataset, spec: SplitSpec):
    """Split a Dataset per ``spec``; returns (kept, held_out)."""
    train_idx, hold_idx = spec.resolve(data.n)
    return data.take(train_idx), data.take(hold_idx)


def gen_gaussian_linear(n: int, d: int, seed: int):
    """Gaussian linear model: X ~ N(0, I_d), Y = X beta + N(0, 1).

    beta = sqrt(10) * u with u a uniformly random unit vector, so the signal
    variance is 10 regardless of d and Var(Y) = 11. Pure function of
    (n, d, seed); returns ``(Dataset, beta)``.
    """
    if n < 1 or d < 1:
        raise ConfigError(f"n and d must be positive, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    u = rng.standard_normal(d)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:  # probability zero, but keep the function total
        u = np.zeros(d)
        u[0] = 1.0
        norm = 1.0
    beta = math.sqrt(10.0) * u / norm
    y = X @ beta + rng.standard_normal(n)
    return Dataset(X, y), beta


def gen_pathological_abc(n: int, alpha: float, gamma: float, seed: int) -> Dataset:
    """Three-column adversarial design (A, B, C).

    A ~ Bernoulli(2 alpha (1 - gamma)), B uniform on {-1, +1}, C uniform on
    [-1, 1], all independent. Responses are a zero placeholder; use
    :func:`attach_tau` to set Y = tau * A.
    """
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    p = 2.0 * alpha * (1.0 - gamma)
    if not 0.0 < p < 1.0:
        raise ConfigError(
            f"need 0 < 2*alpha*(1-gamma) < 1; got {p} from alpha={alpha}, gamma={gamma}"
        )
    rng = np.random.default_rng(seed)
    X = np.empty((n, 3))
    X[:, 0] = rng.random(n) < p
    X[:, 1] = rng.integers(0, 2, size=n)
    X[:, 1] *= 2.0
    X[:, 1] -= 1.0
    X[:, 2] = rng.uniform(-1.0, 1.0, size=n)
    return Dataset(X, np.zeros(n))


def attach_tau(data: Dataset, tau: float) -> Dataset:
    """Responses Y_i = tau * A_i, with A the first feature column."""
    if not math.isfinite(tau):
        raise ConfigError(f"tau must be finite, got {tau}")
    return Dataset(data.features, tau * data.features[:, 0])
