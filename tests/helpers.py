"""Helpers shared by the test modules.

``derive_rng`` draws test fixtures (random designs, permutations, fold
labels) from numpy's PCG64 on a child seed of :func:`predint.derive_seed`,
so every fixture is reproducible and independent of the package's own
streams. No predint command draws from it.
"""

import numpy as np

from predint import Regressor, derive_seed


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
