"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a ``numpy`` generator
whose seed is derived by hashing ``(seed, purpose-tag, ...)`` with a stable
64-bit hash.  Distinct tags give statistically independent streams, and the
same key always reproduces the same stream regardless of platform, process
count, or call order.
"""

from __future__ import annotations

import hashlib

import numpy as np

SeedPart = int | str
SEED_PART_BOUND = 2**127  # an integer seed part lies in [-SEED_PART_BOUND, SEED_PART_BOUND), to pack into 16 bytes


def derive_seed(*parts: SeedPart) -> int:
    """Hash a tuple of ints/strings to a 64-bit seed.

    The hash is blake2b over a length-prefixed encoding, so ``(1, "ab")``
    and ``(1, "a", "b")`` map to different seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str, np.integer)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        if not isinstance(part, str) and not -SEED_PART_BOUND <= int(part) < SEED_PART_BOUND:
            raise ValueError(f"integer seed parts must lie in [-2**127, 2**127), got {part}")
        data = part.encode("utf-8") if isinstance(part, str) else int(part).to_bytes(16, "little", signed=True)
        h.update(len(data).to_bytes(2, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def stream(seed: SeedPart, *tags: SeedPart) -> np.random.Generator:
    """Return a generator keyed by ``(seed, *tags)``.

    Streams with different tags are independent; the same key is exactly
    reproducible.
    """
    return np.random.default_rng(derive_seed(seed, *tags))
