"""Seed derivation for reproducible substreams.

A master seed expands into independent per-purpose streams keyed by a tag
string and a counter. The derivation hashes rather than offsets, so adding a
new consumer or reordering work never silently shifts another stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(master: int, tag: str, index: int = 0) -> int:
    """Stable 64-bit seed for substream (tag, index) under ``master``.

    Pure function of its arguments; uses SHA-256 so results do not depend on
    the process, platform, or Python hash randomization.
    """
    import hashlib  # loads OpenSSL (~3.3 MB resident), so only runs that derive a seed pay it

    digest = hashlib.sha256(f"{master}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master: int, tag: str, index: int = 0) -> np.random.Generator:
    """A fresh PCG64 generator seeded from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(master, tag, index))
