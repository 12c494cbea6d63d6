"""Stable seed derivation so every experiment is reproducible bit-for-bit."""

import hashlib
import random


def derive_seed(*parts) -> int:
    """Collapse a mixed tuple of labels/ints into a stable 64-bit seed.

    Uses SHA-256 of the stringified parts, so results do not depend on
    PYTHONHASHSEED or platform word size.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_bits(n: int, seed) -> str:
    """Return an n-character '0'/'1' string drawn from a dedicated generator."""
    rng = random.Random(derive_seed("bits", seed))
    return "".join(rng.choice("01") for _ in range(n))
