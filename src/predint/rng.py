"""Seed derivation for reproducible substreams.

A master seed expands into independent per-purpose streams keyed by a tag
string and a counter. The derivation hashes rather than offsets, so adding a
new consumer or reordering work never silently shifts another stream.

Every draw comes from one generator, Python's ``random.Random(seed).random()``,
whose sequence for a given seed Python keeps fixed across versions: the
uniforms of the split's shuffle, the K-fold deal, the cross-conformal taus
and the pathological design, and the Box-Muller normals of the Gaussian data
and the memorizer's inputs. So no command loads ``numpy.random``.

Seeds hash with the interpreter's built-in SHA-256, as ``random`` does its
sha512, so no predint process loads ``hashlib`` or OpenSSL (about 3.3 MB
resident); a build without it (FIPS, say) takes ``hashlib``'s equal digest.
"""

from __future__ import annotations

import math
import random

import numpy as np

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

from .errors import ConfigError, _require_int

__all__ = ["derive_seed"]


def derive_seed(master: int, tag: str, index: int | str = 0) -> int:
    """Stable 64-bit seed for substream (tag, index) under ``master``.

    Pure function of its arguments; uses SHA-256 so results do not depend on
    the process, platform, or Python hash randomization. ``master`` must be
    an integer (negative ones included), ``tag`` a string and ``index`` an
    integer or a string sub-tag, since a float would hash its own text, a
    stream unrelated to the integer's, and tag 5 would hash as tag "5".
    """
    _require_int("master", master)
    if not isinstance(tag, str):
        raise ConfigError(f"tag must be a string, got {tag!r}")
    if not isinstance(index, str):
        _require_int("index", index)
    digest = sha256(f"{master}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _require_seed(seed, name: str) -> int:
    """``seed`` as a Python int, or a ConfigError naming the setting ``name``
    unless it is a non-negative integer."""
    if _require_int(name, seed) < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _uniforms(seed, count: int, name: str = "seed") -> np.ndarray:
    """``count`` uniforms on [0, 1) from ``random.Random(seed).random()``, for
    a seed checked as by :func:`_require_seed` (a numpy integer draws what
    the equal Python int draws)."""
    draw = random.Random(_require_seed(seed, name)).random
    return np.fromiter((draw() for _ in range(count)), dtype=float, count=count)


def _normals(seed, count: int) -> np.ndarray:
    """``count`` standard normals by Box-Muller on consecutive pairs (u1, u2)
    of ``random.Random(seed).random()``, the seed checked as for
    :func:`_uniforms`: r = sqrt(-2 log(1 - u1)) and theta = 2 pi u2 give
    r cos(theta), then r sin(theta). The last bits follow the platform's
    libm."""
    draw = random.Random(_require_seed(seed, "seed")).random

    def pairs():
        while True:
            r = math.sqrt(-2.0 * math.log(1.0 - draw()))
            theta = 2.0 * math.pi * draw()
            yield r * math.cos(theta)
            yield r * math.sin(theta)

    return np.fromiter(pairs(), dtype=float, count=count)


def _permutation(seed, n: int, name: str = "seed") -> np.ndarray:
    """A uniformly random permutation of range(n): the stable argsort of n
    :func:`_uniforms`."""
    return np.argsort(_uniforms(seed, n, name), kind="stable")
