"""Helpers shared by the test modules.

``derive_rng`` draws test fixtures (random designs, permutations, fold
labels) from numpy's PCG64 on a child seed of :func:`predint.derive_seed`,
so every fixture is reproducible and independent of the package's own
streams. No predint command draws from it.
"""

import numpy as np

from predint import derive_seed


def derive_rng(master: int, tag: str, index: int | str = 0) -> np.random.Generator:
    """A fresh PCG64 generator seeded from ``derive_seed(master, tag, index)``."""
    return np.random.default_rng(derive_seed(master, tag, index))
