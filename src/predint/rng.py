"""Seed derivation for reproducible substreams.

A master seed expands into independent per-purpose streams keyed by a tag
string and a counter. The derivation hashes rather than offsets, so adding a
new consumer or reordering work never silently shifts another stream.
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


def _seeded_rng(seed, name: str = "seed") -> np.random.Generator:
    """``np.random.default_rng(seed)``, or a ConfigError naming the setting
    ``name`` unless ``seed`` is a non-negative integer."""
    if _require_int(name, seed) < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)
