"""Seed derivation for reproducible substreams.

A master seed expands into independent per-purpose streams keyed by a tag
string and a counter. The derivation hashes rather than offsets, so adding a
new consumer or reordering work never silently shifts another stream.

Two generators draw from a derived seed. The synthetic data
(``gen_gaussian_linear``, ``gen_pathological_abc``, the memorizer's inputs)
come from numpy's PCG64 through :func:`derive_rng`. The few draws a method
makes, the split's shuffle, the K-fold deal and the cross-conformal taus,
come from Python's ``random.Random(seed).random()``, whose sequence for a
given seed Python keeps fixed across versions; so scoring a file never loads
``numpy.random``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, _require_int

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(master: int, tag: str, index: int | str = 0) -> int:
    """Stable 64-bit seed for substream (tag, index) under ``master``.

    Pure function of its arguments; uses SHA-256 so results do not depend on
    the process, platform, or Python hash randomization. ``master`` must be
    an integer (negative ones included) and ``index`` an integer or a string
    sub-tag, since a float would hash its own text, a stream unrelated to the
    integer's.
    """
    import hashlib  # loads OpenSSL (~3.3 MB resident) unless _hashlib is blocked

    _require_int("master", master)
    if not isinstance(index, str):
        _require_int("index", index)
    digest = hashlib.sha256(f"{master}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master: int, tag: str, index: int | str = 0) -> np.random.Generator:
    """A fresh PCG64 generator seeded from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(master, tag, index))


def _require_seed(seed, name: str) -> int:
    """``seed`` as a Python int, or a ConfigError naming the setting ``name``
    unless it is a non-negative integer."""
    if _require_int(name, seed) < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a seed checked by
    :func:`_require_seed`."""
    return np.random.default_rng(_require_seed(seed, "seed"))


def _uniforms(seed, count: int, name: str = "seed") -> np.ndarray:
    """``count`` uniforms on [0, 1) from ``random.Random(seed).random()``, for
    a seed checked as by :func:`_require_seed` (a numpy integer draws what
    the equal Python int draws)."""
    import random  # the stdlib Mersenne Twister; numpy has already imported it

    draw = random.Random(_require_seed(seed, name)).random
    return np.fromiter((draw() for _ in range(count)), dtype=float, count=count)


def _permutation(seed, n: int, name: str = "seed") -> np.ndarray:
    """A uniformly random permutation of range(n): the stable argsort of n
    :func:`_uniforms`."""
    return np.argsort(_uniforms(seed, n, name), kind="stable")
