"""Symmetric regression algorithms and their fitted models.

Every algorithm here is a deterministic, symmetric function of its training
multiset: before fitting, rows are sorted into a canonical order (features
lexicographically, then response), so training is invariant under row
permutations bitwise, not merely up to rounding. ``_fit(X, y)`` on rows in
canonical order is the one override point for training; a subset's canonical
order is the full order restricted to it, so fold and pair fits sort once.
Fitting an empty training set yields the zero function; that convention keeps
leave-one-out and leave-pair-out machinery total without special cases.

Prediction is pure: repeated calls with the same input return the identical
float. ``predict_many(X)`` is the one method a model writes, computing each
row by the same arithmetic in a block of any size; ``predict(x)`` is its block
of one row, so batch and single evaluations agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, _require_int, _require_real

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

    def predict(self, x) -> float:
        return float(self.predict_many(np.asarray(x, dtype=float)[None])[0])

    def predict_many(self, X) -> np.ndarray:
        raise NotImplementedError


class ConstantModel(FittedModel):
    def __init__(self, value: float):
        self.value = float(value)

    def predict_many(self, X) -> np.ndarray:
        return np.full(len(X), self.value)


class LinearModel(FittedModel):
    def __init__(self, coef: np.ndarray, intercept: float):
        self.coef = np.asarray(coef, dtype=float)
        self.intercept = float(intercept)

    def predict_many(self, X) -> np.ndarray:
        # Row sums: one row's bits in any block (np.dot's vary); callers check finiteness.
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(X, dtype=float) * self.coef).sum(axis=1) + self.intercept


class KnnModel(FittedModel):
    def __init__(self, X: np.ndarray, y: np.ndarray, k: int):
        self.X = X
        self.y = y
        self.k = k

    def predict_many(self, X) -> np.ndarray:
        out = np.empty(len(X))
        with np.errstate(over="ignore"):  # an overflow is the DataError below
            for i, x in enumerate(np.asarray(X, dtype=float)):
                diff = self.X - x
                dist2 = np.einsum("ij,ij->i", diff, diff)
                if not np.isfinite(dist2).all():
                    raise DataError("knn distances overflow: the features are too large")
                # Stable argsort: exact distance ties go to the lower row index.
                nearest = np.argsort(dist2, kind="stable")[: self.k]
                out[i] = np.mean(self.y[nearest])
        return out


class MemorizerModel(FittedModel):
    def __init__(self, rows: frozenset, d: int, fresh_value: float):
        self.rows = rows
        self.d = d
        self.fresh_value = float(fresh_value)

    def predict_many(self, X) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ConfigError(f"expected points of dimension {self.d}")
        return np.array([0.0 if row.tobytes() in self.rows else self.fresh_value for row in X])


class ParityModel(FittedModel):
    def __init__(self, tau: float, sign_product: float):
        self.tau = float(tau)
        self.sign_product = float(sign_product)

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.tau * X[:, 0] * X[:, 2] * self.sign_product


@dataclass(frozen=True)
class Regressor:
    """Base class: a symmetric training algorithm plus its hyperparameters."""

    token = "base"

    def fit(self, train: Dataset) -> FittedModel:
        X, y = train.features, train.responses
        return self._fit_rows(X, y, canonical_order(X, y))

    def _fit_rows(self, X: np.ndarray, y: np.ndarray, kept: np.ndarray) -> FittedModel:
        """The fit on rows ``kept`` of (X, y), in canonical order; zero if none."""
        if kept.size == 0:
            return ConstantModel(0.0)
        return self._fit(X[kept], y[kept])

    def _fit(self, X: np.ndarray, y: np.ndarray) -> FittedModel:
        raise NotImplementedError

    def fit_folds(self, train: Dataset, fold_of=None):
        """``(models, model_of, in_sample)``: per row i, ``models[model_of[i]]``
        is fitted without row i's fold and predicts ``in_sample[i]`` at row i.
        Every model is some row's, and the cache may write its residuals into
        ``in_sample``. ``fold_of=None`` is leave-one-out, every row its own
        fold. This reference refits each nonempty fold on the other rows, in
        the canonical order of all n, which is their own."""
        n = train.n
        if fold_of is None:
            fold_of, folds = np.arange(n), range(n)
        else:
            fold_of = np.asarray(fold_of)
            folds = np.flatnonzero(_fold_sizes(fold_of, n))
        X, y = train.features, train.responses
        order = canonical_order(X, y)
        labels_in_order = fold_of[order]
        model_of = np.empty(n, dtype=np.intp)
        in_sample = np.empty(n)
        models = []
        for j, fold in enumerate(folds):
            rows = np.flatnonzero(fold_of == fold)
            model_of[rows] = j
            models.append(self._fit_rows(X, y, order[labels_in_order != fold]))
            in_sample[rows] = models[-1].predict_many(X[rows])
        return models, model_of, in_sample


@dataclass(frozen=True)
class MinNormOLS(Regressor):
    """Least squares through the pseudoinverse: beta = X^+ y, no intercept.

    When the system is underdetermined this is the minimum-l2-norm solution;
    singular values below max(n, d) * eps * sigma_max are treated as zero
    (numpy's rcond=None cutoff).
    """

    token = "ols"

    def _fit(self, X, y):
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        return LinearModel(coef, 0.0)


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
        if not (math.isfinite(_require_real("ridge lambda_rel", self.lambda_rel))
                and self.lambda_rel >= 0):
            raise ConfigError(f"ridge lambda_rel must be finite and >= 0, got {self.lambda_rel}")
        if not isinstance(self.intercept, (bool, np.bool_)):
            raise ConfigError(f"ridge intercept must be a bool, got {self.intercept!r}")

    def _fit(self, X, y):
        try:
            scale = float(np.linalg.norm(X, 2)) ** 2
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise DataError(f"ridge penalty scale sigma_max(X)^2 is not finite, got {scale}")
        lam = self.lambda_rel * scale
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite fits: callers' DataError
            if self.intercept:
                x_bar = X.mean(axis=0)
                y_bar = float(y.mean())
                Xc = X - x_bar
                yc = y - y_bar
                coef = self._solve(Xc, yc, lam)
                return LinearModel(coef, y_bar - float(x_bar @ coef))
            coef = self._solve(X, y, lam)
            return LinearModel(coef, 0.0)

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
        if _require_int("k", self.k) < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def _fit(self, X, y):
        if self.k > len(y):
            raise ConfigError(f"k={self.k} exceeds training size {len(y)}")
        return KnnModel(X, y, self.k)


@dataclass(frozen=True)
class ConstantMean(Regressor):
    """Predicts the training mean everywhere."""

    token = "mean"

    def _fit(self, X, y):
        with np.errstate(over="ignore"):  # an overflow is the callers' DataError
            return ConstantModel(float(np.mean(y)))


@dataclass(frozen=True)
class Memorizer(Regressor):
    """Adversarial overfitter: 0 on memorized rows, (1 + eps) * m elsewhere.

    Row lookup uses exact bitwise equality of the float feature vector, so
    "memorized" means the query is one of the m training rows verbatim.
    """

    token = "memorizer"
    eps: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(_require_real("memorizer eps", self.eps)) and self.eps > 0):
            raise ConfigError(f"memorizer eps must be finite and > 0, got {self.eps}")

    def _fit(self, X, y):
        rows = frozenset(np.ascontiguousarray(row).tobytes() for row in X)
        return MemorizerModel(rows, X.shape[1], (1.0 + self.eps) * len(y))


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
        if not math.isfinite(_require_real("tau", self.tau)):
            raise ConfigError(f"tau must be finite, got {self.tau}")

    def _fit(self, X, y):
        return ParityModel(self.tau, float(np.prod(_parity_signs(X))))

    def fit_folds(self, train, fold_of=None):
        """Leave-one-out in O(n): dropping row i divides prod(B) by B_i = +-1,
        so the n fits take at most two signs, prod(B) * B_i. Other partitions
        refit."""
        if train.n < 2 or (fold_of is not None and _fold_sizes(fold_of, train.n).max() != 1):
            return super().fit_folds(train, fold_of)
        X = train.features
        b = _parity_signs(X)
        product = float(np.prod(b))
        # Row i's sign is s iff B_i = s * product, as product is +-1.
        models = [ParityModel(self.tau, s) for s in (1.0, -1.0) if (b == s * product).any()]
        model_of = (b != models[0].sign_product * product).view(np.uint8)
        # tau * A * C * sign in ParityModel.predict_many's order, in one buffer:
        # refit bits (each step rounds as the temporaries would), no row copy.
        # Multiplying by B_i and then by the product is multiplying by the
        # sign: a factor +-1 only flips the sign bit.
        in_sample = np.multiply(self.tau, X[:, 0])
        in_sample *= X[:, 2]
        in_sample *= b
        if product < 0:
            np.negative(in_sample, out=in_sample)
        return models, model_of, in_sample


def _fold_sizes(fold_of, n: int) -> np.ndarray:
    """Rows per label of ``fold_of``, checked to be n integer labels in range(n)."""
    fold_of = np.asarray(fold_of)
    if (fold_of.shape != (n,) or not np.issubdtype(fold_of.dtype, np.integer)
            or ((fold_of < 0) | (fold_of >= n)).any()):
        raise ConfigError(f"fold_of must map each of the {n} rows to a label in range({n})")
    return np.bincount(fold_of)


def _parity_signs(X: np.ndarray) -> np.ndarray:
    """The B column of a parity design, after checking its shape and values."""
    if X.shape[1] != 3:
        raise ConfigError(f"parity regressor needs exactly 3 features, got {X.shape[1]}")
    b = X[:, 1]
    signs = b == 1.0
    signs |= b == -1.0
    if not signs.all():
        raise ConfigError("parity regressor needs the second feature in {-1, +1}")
    return b


_CLASSES = {cls.token: cls
            for cls in (MinNormOLS, Ridge, KNN, ConstantMean, Memorizer, ParityAdversary)}
REGRESSOR_TOKENS = tuple(_CLASSES)
# make_regressor's setting names: each is the field of one regressor class,
# named by its token. The CLI echoes a built regressor's settings from here.
_SETTINGS = {
    "ridge_lambda": ("ridge", "lambda_rel"),
    "intercept": ("ridge", "intercept"),
    "knn_k": ("knn", "k"),
    "memorizer_eps": ("memorizer", "eps"),
    "parity_tau": ("parity", "tau"),
}


def make_regressor(token: str, **settings) -> Regressor:
    """Build a regressor from its CLI token. ``settings`` are keyed by the
    names ridge_lambda, intercept, knn_k, memorizer_eps and parity_tau; those
    of other regressors are ignored, and an unset one takes its class's
    default."""
    unknown = sorted(settings.keys() - _SETTINGS.keys())
    if unknown:
        raise ConfigError(f"unknown regressor setting(s) {', '.join(unknown)}; "
                          f"expected some of {', '.join(_SETTINGS)}")
    if token not in REGRESSOR_TOKENS:
        raise ConfigError(
            f"unknown regressor {token!r}; expected one of {', '.join(REGRESSOR_TOKENS)}"
        )
    return _CLASSES[token](**{field: settings[name] for name, (owner, field) in _SETTINGS.items()
                              if owner == token and name in settings})
