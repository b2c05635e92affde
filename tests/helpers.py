"""Helpers shared by the test modules.

``derive_rng`` draws test fixtures (random designs, permutations, fold
labels) from numpy's PCG64 on a child seed of :func:`predint.derive_seed`,
so every fixture is reproducible and independent of the package's own
streams. No predint command draws from it. ``full_conformal_oracle`` is the
slow reference for the engine's full-conformal sets, and ``knn_oracle`` the
row-by-row reference for batched k-NN predictions.
"""

import numpy as np

from predint import (DataError, Dataset, PredictionInterval, PredictionSet, Regressor,
                     derive_seed, upper_quantile)


def derive_rng(master: int, tag: str, index: int | str = 0) -> np.random.Generator:
    """A fresh PCG64 generator seeded from ``derive_seed(master, tag, index)``."""
    return np.random.default_rng(derive_seed(master, tag, index))


class CountingRegressor(Regressor):
    """Passes every fit through to ``inner`` and counts it at the training
    hook, which full, split and fold fits all reach."""

    def __init__(self, inner):
        self.inner = inner
        self.fits = 0

    def _fit(self, X, y):
        self.fits += 1
        return self.inner._fit(X, y)


def full_conformal_oracle(train, regressor, spec, x, grid_points=200, grid_lower=None,
                          grid_upper=None) -> PredictionSet:
    """The full-conformal set at the query point x by direct refits: for each
    of ``grid_points`` evenly spaced candidates y (bounds default to the
    training response range), a fresh Dataset of the training rows plus
    (x, y) is fitted with ``regressor.fit``, and y is kept iff its residual is
    at most the corrected quantile of the training rows' residuals. Each run
    of kept candidates is one closed component."""
    x = np.asarray(x, dtype=float)
    lo = float(np.min(train.responses) if grid_lower is None else grid_lower)
    hi = float(np.max(train.responses) if grid_upper is None else grid_upper)
    ys = np.linspace(lo, hi, grid_points)
    kept = []
    for y in ys:
        model = regressor.fit(Dataset(np.vstack([train.features, x]),
                                      np.append(train.responses, y)))
        resid = np.abs(train.responses - model.predict_many(train.features))
        kept.append(abs(y - model.predict(x)) <= upper_quantile(resid, spec.alpha))
    runs, start = [], None
    for idx, ok in enumerate(kept + [False]):
        if ok and start is None:
            start = idx
        elif not ok and start is not None:
            runs.append(PredictionInterval(float(ys[start]), float(ys[idx - 1])))
            start = None
    return PredictionSet(tuple(runs))


def knn_oracle(model, X) -> np.ndarray:
    """A fitted k-NN model's predictions at the rows of X, one row at a time:
    the mean response of the k training rows nearest in squared Euclidean
    distance, exact ties going to the lower row index."""
    out = np.empty(len(X))
    with np.errstate(over="ignore"):  # an overflow is the DataError below
        for i, x in enumerate(np.asarray(X, dtype=float)):
            diff = model.X - x
            dist2 = np.einsum("ij,ij->i", diff, diff)
            if not np.isfinite(dist2).all():
                raise DataError("knn distances overflow: the features are too large")
            nearest = np.argsort(dist2, kind="stable")[: model.k]
            out[i] = np.mean(model.y[nearest])
    return out
