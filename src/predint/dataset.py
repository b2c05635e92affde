"""Datasets: validated arrays, the CLI's CSV reader, splits, synthetic generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, _require_finite, _require_fraction, _require_int
from .rng import _normals, _permutation, _uniforms

__all__ = ["Dataset", "SplitSpec", "gen_gaussian_linear", "gen_pathological_abc"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable regression sample: features of shape (n, d), responses (n,).

    All entries must be finite floats. The constructor copies and freezes its
    arrays; ``take`` and ``drop`` adopt the fresh rows they gather, and ``head``
    and ``tail_from`` are read-only views of the frozen parent. So a Dataset
    can be shared across fitted models and caches without defensive copying.
    """

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        # Copied even when already float and frozen: a view taken before the
        # caller froze its array could still write to it.
        try:
            X, y = np.array(self.features, dtype=float), np.array(self.responses, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DataError(f"features and responses must be arrays of numbers: {exc}") from None
        self._own(X, y)

    @classmethod
    def _adopt(cls, features: np.ndarray, responses: np.ndarray) -> "Dataset":
        """A Dataset of float arrays that no one else can write to (fresh, or
        another Dataset's): the constructor's checks, and the arrays are frozen
        in place instead of copied."""
        data = object.__new__(cls)
        data._own(np.asarray(features, dtype=float), np.asarray(responses, dtype=float))
        return data

    def _own(self, X: np.ndarray, y: np.ndarray) -> None:
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

    def _rows(self, indices) -> np.ndarray:
        """``indices`` as an integer array of row positions in [0, n), else a
        ConfigError: numpy would truncate 0.5 to row 0 and read -1 as row n - 1."""
        idx = np.asarray(indices)
        if idx.size == 0:
            return idx.astype(int)
        if idx.dtype.kind not in "iu":
            raise ConfigError(f"row indices must be integers, got {idx.dtype} entries")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ConfigError(f"row indices must lie in [0, {self.n}), got indices "
                              f"from {idx.min()} to {idx.max()}")
        return idx

    def _count(self, k) -> int:
        """``k`` itself if it is an integer row count in [0, n], else a ConfigError."""
        if not 0 <= _require_int("k", k) <= self.n:
            raise ConfigError(f"k must lie in [0, {self.n}], got {k}")
        return k

    def take(self, indices) -> "Dataset":
        """New Dataset with the given rows, in the given order."""
        idx = self._rows(indices)
        return Dataset._adopt(self.features[idx], self.responses[idx])

    def drop(self, indices) -> "Dataset":
        """New Dataset without the given rows (order of the rest preserved)."""
        mask = np.ones(self.n, dtype=bool)
        mask[self._rows(indices)] = False
        return Dataset._adopt(self.features[mask], self.responses[mask])

    def head(self, k: int) -> "Dataset":
        """The first k rows."""
        k = self._count(k)
        return Dataset._adopt(self.features[:k], self.responses[:k])

    def tail_from(self, k: int) -> "Dataset":
        """The rows from row k on."""
        k = self._count(k)
        return Dataset._adopt(self.features[k:], self.responses[k:])


def _parse_cell(token: str, path: str, row: int, column: str) -> float:
    try:
        value = float(token.strip())
    except ValueError as exc:
        raise DataError(
            f"{path}: row {row}, column {column!r}: cannot parse {token!r} as a number"
        ) from exc
    if not math.isfinite(value):
        raise DataError(
            f"{path}: row {row}, column {column!r}: non-finite value {token!r} not allowed"
        )
    return value


def _read_table(path: str):
    """The stripped header names and the parsed data rows."""
    from array import array  # loaded by the commands that read a file only

    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            header = [name.strip() for name in header]
            if any(not name for name in header):
                raise DataError(f"{path}: header has an empty column name")
            # The cells in row-major order, one 8-byte double each, rather
            # than a list of Python floats per row.
            cells = array("d")
            for number, raw in enumerate(reader, start=1):
                if not raw or all(not cell.strip() for cell in raw):
                    continue  # ignore blank lines
                if len(raw) != len(header):
                    raise DataError(
                        f"{path}: row {number} has {len(raw)} cells, expected {len(header)}"
                    )
                for j, cell in enumerate(raw):
                    cells.append(_parse_cell(cell, path, number, header[j]))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not cells:
        raise DataError(f"{path}: no data rows")
    return header, np.frombuffer(cells).reshape(-1, len(header))


def _load_columns(path: str, target_column: str | None):
    """``(feature names, features, responses or None)`` of a CSV file.

    The target column, if present, is split off; the other columns are the
    features, in file order.
    """
    header, table = _read_table(path)
    hits = [j for j, name in enumerate(header) if name == target_column]
    if not hits:
        return header, table, None
    if len(hits) > 1:
        raise DataError(f"{path}: target column {target_column!r} appears twice")
    feature_cols = [j for j in range(len(header)) if j != hits[0]]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns besides the target")
    return [header[j] for j in feature_cols], table[:, feature_cols], table[:, hits[0]]


def _load_dataset(path: str, target_column: str):
    """``(feature names, Dataset)`` of a CSV file that must carry the target
    column."""
    names, features, responses = _load_columns(path, target_column)
    if responses is None:
        raise DataError(f"{path}: target column {target_column!r} not found")
    return names, Dataset(features, responses)


@dataclass(frozen=True)
class SplitSpec:
    """How to split rows into a kept part and a held-out part: rows are
    shuffled by the stable argsort of n uniforms of ``random.Random(seed)``,
    and the first round(n * holdout_fraction) go to the holdout.
    """

    holdout_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _require_fraction("holdout_fraction", self.holdout_fraction)

    def resolve(self, n: int):
        """Return (train_idx, holdout_idx) as sorted integer arrays."""
        if _require_finite("n", _require_int("n", n)) < 2:
            raise ConfigError("cannot split fewer than 2 rows")
        size = min(max(int(round(n * self.holdout_fraction)), 1), n - 1)
        perm = _permutation(self.seed, n)
        return np.sort(perm[size:]), np.sort(perm[:size])


def gen_gaussian_linear(n: int, d: int, seed: int):
    """Gaussian linear model: X ~ N(0, I_d), Y = X beta + N(0, 1).

    beta = sqrt(10) * u with u a uniformly random unit vector, so the signal
    variance is 10 regardless of d and Var(Y) = 11. Of the n*d + d + n
    normals of ``_normals(seed, ...)``, X takes the first n*d in row-major
    order, u the next d and the noise the last n. Pure function of
    (n, d, seed); returns ``(Dataset, beta)``.
    """
    _require_int("n", n, 1)
    _require_int("d", d, 1)
    z = _normals(seed, n * d + d + n)
    X = z[: n * d].reshape(n, d)
    u = z[n * d : n * d + d]
    norm = float(np.linalg.norm(u))
    if norm == 0.0:  # probability zero, but keep the function total
        u = np.zeros(d)
        u[0] = 1.0
        norm = 1.0
    beta = math.sqrt(10.0) * u / norm
    y = X @ beta + z[n * d + d :]
    return Dataset._adopt(X, y), beta


def gen_pathological_abc(n: int, alpha: float, gamma: float, seed: int,
                         tau: float = 0.0) -> Dataset:
    """Three-column adversarial design (A, B, C) with responses Y = tau * A.

    A ~ Bernoulli(2 alpha (1 - gamma)), B uniform on {-1, +1}, C uniform on
    [-1, 1], all independent, from the rows (u1, u2, u3) of 3n
    ``_uniforms(seed, ...)``: A = [u1 < p], B = -1 if u2 < 0.5 else +1 and
    C = 2 u3 - 1. ``tau`` must be a finite real number; at the default 0 the
    responses are all zero.
    """
    _require_int("n", n, 1)
    p = 2.0 * _require_finite("alpha", alpha) * (1.0 - _require_finite("gamma", gamma))
    if not 0.0 < p < 1.0:
        raise ConfigError(
            f"need 0 < 2*alpha*(1-gamma) < 1; got {p} from alpha={alpha}, gamma={gamma}"
        )
    _require_finite("tau", tau)
    X = _uniforms(seed, 3 * n).reshape(n, 3)
    X[:, 0] = X[:, 0] < p
    X[:, 1] = X[:, 1] >= 0.5
    X[:, 1] *= 2.0
    X[:, 1] -= 1.0
    X[:, 2] *= 2.0
    X[:, 2] -= 1.0
    return Dataset._adopt(X, tau * X[:, 0])
