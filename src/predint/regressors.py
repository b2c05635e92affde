"""Symmetric regression algorithms and their fitted models.

Every algorithm here is a deterministic, symmetric function of its training
multiset: before fitting, rows are sorted into a canonical order (features
lexicographically, then response), so training is invariant under row
permutations bitwise, not merely up to rounding. Fitting an empty training
set yields the zero function; that convention keeps leave-one-out and
leave-pair-out machinery total without special cases.

Prediction is pure: repeated calls with the same input return the identical
float. ``predict_many`` is a row loop over ``predict``, or repeats its
arithmetic in the same order, so batch and single evaluations agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError

__all__ = [
    "FittedModel",
    "Regressor",
    "MinNormOLS",
    "Ridge",
    "KNN",
    "ConstantMean",
    "Memorizer",
    "ParityAdversary",
    "make_regressor",
    "REGRESSOR_TOKENS",
    "canonical_order",
]


def canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices sorting rows by (x_1, ..., x_d, y) lexicographically."""
    keys = [y] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


class FittedModel:
    """A fitted prediction rule. Evaluation is pure and deterministic."""

    training_size: int = 0

    def predict(self, x) -> float:
        raise NotImplementedError

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([self.predict(row) for row in X], dtype=float)


class ConstantModel(FittedModel):
    def __init__(self, value: float, training_size: int):
        self.value = float(value)
        self.training_size = training_size

    def predict(self, x) -> float:
        return self.value


class LinearModel(FittedModel):
    def __init__(self, coef: np.ndarray, intercept: float, training_size: int):
        self.coef = np.asarray(coef, dtype=float)
        self.intercept = float(intercept)
        self.training_size = training_size

    def predict(self, x) -> float:
        return float(np.dot(np.asarray(x, dtype=float), self.coef) + self.intercept)


class KnnModel(FittedModel):
    def __init__(self, X: np.ndarray, y: np.ndarray, k: int):
        self.X = X
        self.y = y
        self.k = k
        self.training_size = len(y)

    def predict(self, x) -> float:
        diff = self.X - np.asarray(x, dtype=float)
        dist2 = np.einsum("ij,ij->i", diff, diff)
        # Stable argsort: exact distance ties go to the lower row index.
        nearest = np.argsort(dist2, kind="stable")[: self.k]
        return float(np.mean(self.y[nearest]))


class MemorizerModel(FittedModel):
    def __init__(self, rows: frozenset, d: int, fresh_value: float, training_size: int):
        self.rows = rows
        self.d = d
        self.fresh_value = float(fresh_value)
        self.training_size = training_size

    def predict(self, x) -> float:
        row = np.ascontiguousarray(np.asarray(x, dtype=float))
        if row.shape != (self.d,):
            raise ConfigError(f"expected a point of dimension {self.d}")
        if row.tobytes() in self.rows:
            return 0.0
        return self.fresh_value


class ParityModel(FittedModel):
    def __init__(self, tau: float, sign_product: float, training_size: int):
        self.tau = float(tau)
        self.sign_product = float(sign_product)
        self.training_size = training_size

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.tau * x[0] * x[2] * self.sign_product)

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.tau * X[:, 0] * X[:, 2] * self.sign_product


@dataclass(frozen=True)
class Regressor:
    """Base class: a symmetric training algorithm plus its hyperparameters."""

    token = "base"

    def fit(self, train: Dataset) -> FittedModel:
        order = canonical_order(train.features, train.responses)
        return self._fit(train.features[order], train.responses[order])

    def _fit(self, X: np.ndarray, y: np.ndarray) -> FittedModel:
        raise NotImplementedError

    def fit_folds(self, train: Dataset, fold_of: np.ndarray, k: int):
        """``(models, model_of)``: the distinct models fitted without some fold,
        and per row i the index of the one fitted without row i's fold. This
        reference refits every fold, so ``model_of`` is ``fold_of``."""
        models = [self.fit(train.drop(np.flatnonzero(fold_of == j))) for j in range(k)]
        return models, fold_of


@dataclass(frozen=True)
class MinNormOLS(Regressor):
    """Least squares through the pseudoinverse: beta = X^+ y, no intercept.

    When the system is underdetermined this is the minimum-l2-norm solution;
    singular values below max(n, d) * eps * sigma_max are treated as zero
    (numpy's rcond=None cutoff).
    """

    token = "ols"

    def _fit(self, X, y):
        if len(y) == 0:
            return ConstantModel(0.0, 0)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        return LinearModel(coef, 0.0, len(y))


@dataclass(frozen=True)
class Ridge(Regressor):
    """Ridge regression, objective 0.5 * sum (y - b0 - x.b)^2 + lam * ||b||^2.

    ``lam`` is relative: lam = lambda_rel * sigma_max(X)^2, recomputed from
    each fit's own design matrix. The intercept, when enabled, is not
    penalized. Features are used as given (no standardization).
    """

    token = "ridge"
    lambda_rel: float = 1e-3
    intercept: bool = True

    def __post_init__(self):
        if self.lambda_rel < 0:
            raise ConfigError(f"lambda_rel must be >= 0, got {self.lambda_rel}")

    def _fit(self, X, y):
        m = len(y)
        if m == 0:
            return ConstantModel(0.0, 0)
        try:
            scale = float(np.linalg.norm(X, 2)) ** 2
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise DataError(f"ridge penalty scale sigma_max(X)^2 is not finite, got {scale}")
        lam = self.lambda_rel * scale
        if self.intercept:
            x_bar = X.mean(axis=0)
            y_bar = float(y.mean())
            Xc = X - x_bar
            yc = y - y_bar
            coef = self._solve(Xc, yc, lam)
            return LinearModel(coef, y_bar - float(x_bar @ coef), m)
        coef = self._solve(X, y, lam)
        return LinearModel(coef, 0.0, m)

    @staticmethod
    def _solve(X, y, lam):
        if lam == 0.0:
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            return coef
        d = X.shape[1]
        # Stationarity of the objective: (X'X + 2 lam I) b = X'y.
        return np.linalg.solve(X.T @ X + 2.0 * lam * np.eye(d), X.T @ y)


@dataclass(frozen=True)
class KNN(Regressor):
    """k-nearest-neighbors mean with Euclidean distance.

    Exact distance ties are broken toward the lower canonical row index.
    """

    token = "knn"
    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def _fit(self, X, y):
        m = len(y)
        if m == 0:
            return ConstantModel(0.0, 0)
        if self.k > m:
            raise ConfigError(f"k={self.k} exceeds training size {m}")
        return KnnModel(X, y, self.k)


@dataclass(frozen=True)
class ConstantMean(Regressor):
    """Predicts the training mean everywhere."""

    token = "mean"

    def _fit(self, X, y):
        if len(y) == 0:
            return ConstantModel(0.0, 0)
        return ConstantModel(float(np.mean(y)), len(y))


@dataclass(frozen=True)
class Memorizer(Regressor):
    """Adversarial overfitter: 0 on memorized rows, (1 + eps) * m elsewhere.

    Row lookup uses exact bitwise equality of the float feature vector, so
    "memorized" means the query is one of the m training rows verbatim.
    """

    token = "memorizer"
    eps: float = 1.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")

    def _fit(self, X, y):
        m = len(y)
        if m == 0:
            return ConstantModel(0.0, 0)
        rows = frozenset(np.ascontiguousarray(row).tobytes() for row in X)
        return MemorizerModel(rows, X.shape[1], (1.0 + self.eps) * m, m)


@dataclass(frozen=True)
class ParityAdversary(Regressor):
    """Sign-flipping adversary on (a, b, c) features with b in {-1, +1}.

    The fit is mu(a, b, c) = tau * a * c * prod_j B_j over the training rows'
    B column. Removing one row flips the product's sign whenever B_i = -1,
    which lets leave-one-out predictions oscillate in lockstep.
    """

    token = "parity"
    tau: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau}")

    def _fit(self, X, y):
        m = len(y)
        if m == 0:
            return ConstantModel(0.0, 0)
        return ParityModel(self.tau, float(np.prod(_parity_signs(X))), m)

    def fit_folds(self, train, fold_of, k):
        """Leave-one-out in O(n): dropping row i divides prod(B) by B_i = +-1,
        so the n fits take only the two signs. Other partitions refit."""
        n = train.n
        if k != n or n < 2 or np.bincount(fold_of).max() != 1:
            return super().fit_folds(train, fold_of, k)
        b = _parity_signs(train.features)
        models = [ParityModel(self.tau, sign, n - 1) for sign in (1.0, -1.0)]
        return models, (np.prod(b) * b < 0).astype(np.intp)


def _parity_signs(X: np.ndarray) -> np.ndarray:
    """The B column of a parity design, after checking its shape and values."""
    if X.shape[1] != 3:
        raise ConfigError(f"parity regressor needs exactly 3 features, got {X.shape[1]}")
    b = X[:, 1]
    if not np.all(np.abs(b) == 1.0):
        raise ConfigError("parity regressor needs the second feature in {-1, +1}")
    return b


REGRESSOR_TOKENS = ("ols", "ridge", "knn", "mean", "memorizer", "parity")


def make_regressor(
    token: str,
    *,
    ridge_lambda: float = 1e-3,
    intercept: bool = True,
    knn_k: int = 5,
    memorizer_eps: float = 1.0,
    parity_tau: float = 1.0,
) -> Regressor:
    """Build a regressor from its CLI token."""
    if token == "ols":
        return MinNormOLS()
    if token == "ridge":
        return Ridge(lambda_rel=ridge_lambda, intercept=intercept)
    if token == "knn":
        return KNN(k=knn_k)
    if token == "mean":
        return ConstantMean()
    if token == "memorizer":
        return Memorizer(eps=memorizer_eps)
    if token == "parity":
        return ParityAdversary(tau=parity_tau)
    raise ConfigError(
        f"unknown regressor {token!r}; expected one of {', '.join(REGRESSOR_TOKENS)}"
    )
